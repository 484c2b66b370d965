type utility_model = Outgoing | Incoming

type flip_kernel = Flip_full | Flip_delta

type t = {
  theta : float;
  theta_off : float;
  model : utility_model;
  stub_tiebreak : bool;
  tiebreak : Bgp.Policy.tiebreak;
  cp_fraction : float;
  max_rounds : int;
  allow_turn_off : bool;
  disable_secp : bool;
  disable_simplex : bool;
  theta_jitter : float;
  jitter_seed : int;
  workers : int;
  retries : int;
  flip_kernel : flip_kernel;
  statics_kernel : Bgp.Route_static.kernel;
  task_timeout_ms : int;
  degrade : bool;
}

let default =
  {
    theta = 0.05;
    theta_off = 0.05;
    model = Outgoing;
    stub_tiebreak = true;
    tiebreak = Bgp.Policy.Hashed 0x5b9d;
    cp_fraction = 0.10;
    max_rounds = 100;
    allow_turn_off = false;
    disable_secp = false;
    disable_simplex = false;
    theta_jitter = 0.0;
    jitter_seed = 1;
    workers = Parallel.Pool.default_workers ();
    retries = 2;
    flip_kernel = Flip_delta;
    statics_kernel = Bgp.Route_static.Delta;
    task_timeout_ms =
      Nsutil.Env.int_var ~name:"SBGP_TASK_TIMEOUT_MS" ~min:0 ~default:0 ();
    degrade = false;
  }

let incoming = { default with model = Incoming; allow_turn_off = true }

let utility_model_to_string = function
  | Outgoing -> "outgoing"
  | Incoming -> "incoming"
