module Route_static = Bgp.Route_static

let invalidate statics ~changed ~secure =
  let n = Asgraph.Graph.n (Route_static.graph statics) in
  let dirty = Array.make n false in
  if changed <> [] then begin
    let in_changed = Bytes.make n '\000' in
    List.iter (fun c -> Bytes.set in_changed c '\001') changed;
    let changed_count = List.length changed in
    let bd = lazy (Route_static.make_builder n) in
    for d = 0 to n - 1 do
      if Bytes.get in_changed d = '\001' then dirty.(d) <- true
      else if Bytes.get secure d = '\001' then begin
        let info =
          if Route_static.bounded statics then
            Route_static.stream_get statics (Lazy.force bd) d
          else Route_static.get statics d
        in
        let nreach = Route_static.order_length info in
        dirty.(d) <-
          (if changed_count <= nreach then
             List.exists (Route_static.reachable info) changed
           else begin
             let rec scan k =
               k < nreach
               && (Bytes.get in_changed (Route_static.order_get info k) = '\001'
                  || scan (k + 1))
             in
             scan 0
           end)
      end
    done
  end;
  dirty
