(* Repository hygiene: build artifacts must not be tracked.

   [dune runtest] executes from the build sandbox, so the test walks
   up to the checkout root (the directory holding [.git]) and asks git
   which files it tracks under [_build/]. Anything tracked there is a
   bug: artifacts churn on every build and bloat history. The test
   skips silently when not run from a git checkout (release tarball)
   or when git is unavailable. *)

let rec find_root dir =
  if Sys.file_exists (Filename.concat dir ".git") then Some dir
  else
    let parent = Filename.dirname dir in
    if parent = dir then None else find_root parent

let git_lines root args =
  let cmd = Printf.sprintf "git -C %s %s 2>/dev/null" (Filename.quote root) args in
  let ic = Unix.open_process_in cmd in
  let rec collect acc =
    match input_line ic with
    | line -> collect (line :: acc)
    | exception End_of_file -> List.rev acc
  in
  let lines = collect [] in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> Some lines
  | _ -> None

let test_no_tracked_build_artifacts () =
  match find_root (Sys.getcwd ()) with
  | None -> () (* not a git checkout: nothing to enforce *)
  | Some root -> (
      match git_lines root "ls-files _build" with
      | None -> () (* git unavailable *)
      | Some files ->
          Alcotest.(check (list string)) "files tracked under _build/" [] files)

let test_gitignore_covers_build () =
  match find_root (Sys.getcwd ()) with
  | None -> ()
  | Some root ->
      let path = Filename.concat root ".gitignore" in
      if Sys.file_exists path then begin
        let ic = open_in path in
        let rec has_build () =
          match input_line ic with
          | line -> String.trim line = "_build/" || has_build ()
          | exception End_of_file -> false
        in
        let covered = has_build () in
        close_in ic;
        Alcotest.(check bool) ".gitignore lists _build/" true covered
      end

(* Run artifacts the binaries generate in place — checkpoints, bench
   JSON, telemetry traces and metrics dumps — must be ignored, never
   tracked: they differ per machine and per run. *)
let generated_patterns =
  [
    "ckpt.*"; "bench_smoke.json"; "*.prom"; "*.trace.json"; "*.jsonl"; "*.sbg";
    "scale_smoke.json";
  ]

let test_gitignore_covers_generated_artifacts () =
  match find_root (Sys.getcwd ()) with
  | None -> ()
  | Some root ->
      let path = Filename.concat root ".gitignore" in
      if Sys.file_exists path then begin
        let ic = open_in path in
        let rec lines acc =
          match input_line ic with
          | line -> lines (String.trim line :: acc)
          | exception End_of_file -> acc
        in
        let patterns = lines [] in
        close_in ic;
        List.iter
          (fun p ->
            Alcotest.(check bool)
              (Printf.sprintf ".gitignore lists %s" p)
              true (List.mem p patterns))
          generated_patterns
      end

(* Test fixtures that share an artifact's extension are re-included
   by a [!path] line in .gitignore; those, and only those, may be
   tracked. *)
let gitignore_exceptions root =
  let path = Filename.concat root ".gitignore" in
  if not (Sys.file_exists path) then []
  else
    In_channel.with_open_text path In_channel.input_lines
    |> List.filter_map (fun line ->
           let line = String.trim line in
           if String.length line > 1 && line.[0] = '!' then
             Some (String.sub line 1 (String.length line - 1))
           else None)

let test_no_tracked_generated_artifacts () =
  match find_root (Sys.getcwd ()) with
  | None -> ()
  | Some root -> (
      match
        git_lines root
          "ls-files -- 'ckpt.*' '*.prom' '*.trace.json' 'bench_smoke.json' \
           '*.bench' '*.jsonl' '*.sbg' 'scale_smoke.json'"
      with
      | None -> ()
      | Some files ->
          let fixtures = gitignore_exceptions root in
          Alcotest.(check (list string)) "tracked generated artifacts" []
            (List.filter (fun f -> not (List.mem f fixtures)) files))

(* Every file a dune stanza depends on — an atom of a [(deps ...)]
   field or a [%{dep:...}] form — must be tracked, or a fresh checkout
   cannot build that stanza. Dune files are read as s-expressions:
   atoms, quoted strings, lists, [;] comments. *)
type sexp = Atom of string | List of sexp list

let parse_sexps text =
  let len = String.length text in
  let rec skip i =
    if i >= len then i
    else
      match text.[i] with
      | ' ' | '\t' | '\n' | '\r' -> skip (i + 1)
      | ';' -> (
          match String.index_from_opt text i '\n' with
          | Some j -> skip (j + 1)
          | None -> len)
      | _ -> i
  in
  let rec items i acc =
    let i = skip i in
    if i >= len || text.[i] = ')' then (List.rev acc, i + 1)
    else if text.[i] = '(' then
      let l, i = items (i + 1) [] in
      items i (List l :: acc)
    else if text.[i] = '"' then begin
      let b = Buffer.create 16 in
      let rec str j =
        if j >= len then j
        else if text.[j] = '\\' && j + 1 < len then begin
          Buffer.add_char b text.[j + 1];
          str (j + 2)
        end
        else if text.[j] = '"' then j + 1
        else begin
          Buffer.add_char b text.[j];
          str (j + 1)
        end
      in
      let i = str (i + 1) in
      items i (Atom (Buffer.contents b) :: acc)
    end
    else begin
      let j = ref i in
      while
        !j < len && not (String.contains " \t\n\r();\"" text.[!j])
      do
        incr j
      done;
      items !j (Atom (String.sub text i (!j - i)) :: acc)
    end
  in
  fst (items 0 [])

let dep_forms atom =
  let marker = "%{dep:" in
  let ml = String.length marker in
  let rec from i acc =
    match String.index_from_opt atom i '%' with
    | Some k when k + ml <= String.length atom && String.sub atom k ml = marker -> (
        match String.index_from_opt atom (k + ml) '}' with
        | Some e -> from (e + 1) (String.sub atom (k + ml) (e - k - ml) :: acc)
        | None -> acc)
    | Some k -> from (k + 1) acc
    | None -> acc
  in
  from 0 []

let rec dune_deps = function
  | Atom a -> dep_forms a
  | List (Atom "deps" :: fields) ->
      List.concat_map
        (function
          | Atom a when String.length a > 0 && a.[0] <> '%' -> [ a ]
          | s -> dune_deps s)
        fields
  | List l -> List.concat_map dune_deps l

(* [dir/rel] with "." and ".." segments folded away. *)
let normalize dir rel =
  let segs = String.split_on_char '/' (if dir = "." then rel else dir ^ "/" ^ rel) in
  List.fold_left
    (fun acc s ->
      match (s, acc) with
      | ("" | "."), _ -> acc
      | "..", _ :: rest -> rest
      | _ -> s :: acc)
    [] segs
  |> List.rev |> String.concat "/"

let test_dune_deps_tracked () =
  match find_root (Sys.getcwd ()) with
  | None -> ()
  | Some root -> (
      match (git_lines root "ls-files", git_lines root "ls-files -- dune '*/dune'") with
      | Some tracked, Some dune_files ->
          let untracked =
            List.concat_map
              (fun file ->
                let text =
                  In_channel.with_open_text (Filename.concat root file)
                    In_channel.input_all
                in
                List.concat_map dune_deps (parse_sexps text)
                |> List.map (normalize (Filename.dirname file))
                |> List.filter (fun p -> not (List.mem p tracked))
                |> List.map (fun p -> file ^ " -> " ^ p))
              dune_files
          in
          Alcotest.(check (list string)) "dune deps not tracked by git" [] untracked
      | _ -> ())

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
  at 0

(* One scheduling primitive: the pool is the only place in [lib/] that
   spawns domains, and its interface declares a single fan-out. *)
let test_one_scheduling_primitive () =
  match find_root (Sys.getcwd ()) with
  | None -> ()
  | Some root -> (
      match git_lines root "ls-files -- lib" with
      | None -> ()
      | Some files ->
          let read f = In_channel.with_open_text (Filename.concat root f) In_channel.input_all in
          Alcotest.(check (list string)) "Domain.spawn outside lib/parallel/pool.ml" []
            (List.filter
               (fun f -> f <> "lib/parallel/pool.ml" && contains (read f) "Domain.spawn")
               files);
          let fanouts =
            String.split_on_char '\n' (read "lib/parallel/pool.mli")
            |> List.filter (fun l ->
                   String.starts_with ~prefix:"val map_reduce" (String.trim l))
          in
          Alcotest.(check int) "val map_reduce* in pool.mli" 1 (List.length fanouts))

(* One ladder for every wall-time histogram: each
   [Nsobs.Metrics.histogram] call in [lib/] whose metric name ends in
   "_ms" passes [~buckets:Nsobs.Metrics.duration_ms_buckets], so no
   duration clamps at a private top bucket. A call's text runs from
   the function name to the first ')' outside a string literal; its
   last string literal is the metric name. *)
let ms_histogram_calls text =
  let marker = "Nsobs.Metrics.histogram" and len = String.length text in
  let ml = String.length marker in
  let rec past_string i =
    if i >= len then len
    else
      match text.[i] with
      | '\\' -> past_string (i + 2)
      | '"' -> i + 1
      | _ -> past_string (i + 1)
  in
  let rec call i last =
    if i >= len || text.[i] = ')' then (i, last)
    else if text.[i] = '"' then
      let j = past_string (i + 1) in
      call j (Some (String.sub text (i + 1) (max 0 (j - i - 2))))
    else call (i + 1) last
  in
  let ident c =
    match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> true | _ -> false
  in
  let rec from i acc =
    if i + ml > len then List.rev acc
    else if String.sub text i ml = marker && not (i + ml < len && ident text.[i + ml])
    then
      let stop, name = call (i + ml) None in
      match name with
      | Some name when String.ends_with ~suffix:"_ms" name ->
          from stop ((name, String.sub text i (stop - i)) :: acc)
      | _ -> from stop acc
    else from (i + 1) acc
  in
  from 0 []

let test_ms_histograms_share_ladder () =
  match find_root (Sys.getcwd ()) with
  | None -> ()
  | Some root -> (
      match git_lines root "ls-files -- 'lib/*.ml'" with
      | None -> ()
      | Some files ->
          let calls =
            List.concat_map
              (fun f ->
                In_channel.with_open_text (Filename.concat root f) In_channel.input_all
                |> ms_histogram_calls
                |> List.map (fun (name, call) -> (f ^ ": " ^ name, call)))
              files
          in
          Alcotest.(check bool) "found the *_ms histograms" true
            (List.exists
               (fun (n, _) -> String.ends_with ~suffix:": checkpoint_write_ms" n)
               calls);
          Alcotest.(check (list string)) "*_ms histograms off the shared ladder" []
            (List.filter_map
               (fun (n, call) ->
                 if contains call "~buckets:Nsobs.Metrics.duration_ms_buckets" then None
                 else Some n)
               calls))

let () =
  Alcotest.run "repo_hygiene"
    [
      ( "hygiene",
        [
          Alcotest.test_case "no tracked _build artifacts" `Quick
            test_no_tracked_build_artifacts;
          Alcotest.test_case ".gitignore covers _build/" `Quick
            test_gitignore_covers_build;
          Alcotest.test_case ".gitignore covers generated artifacts" `Quick
            test_gitignore_covers_generated_artifacts;
          Alcotest.test_case "no tracked generated artifacts" `Quick
            test_no_tracked_generated_artifacts;
          Alcotest.test_case "dune deps are tracked" `Quick test_dune_deps_tracked;
          Alcotest.test_case "one scheduling primitive" `Quick
            test_one_scheduling_primitive;
          Alcotest.test_case "one ladder for *_ms histograms" `Quick
            test_ms_histograms_share_ladder;
        ] );
    ]
