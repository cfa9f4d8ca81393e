type t = {
  counts : (Ir.Instr.label, int) Hashtbl.t;
  edges : (Ir.Instr.label * Ir.Instr.label, int) Hashtbl.t;
  hot : int;
}

let min_edge_samples = 16
let cold_fraction = 0.25

let create ?(hot_threshold = 50) () =
  if hot_threshold <= 0 then invalid_arg "Profiler.create: hot_threshold";
  {
    counts = Hashtbl.create 64;
    edges = Hashtbl.create 64;
    hot = hot_threshold;
  }

let note_execution t l =
  let n = Option.value (Hashtbl.find_opt t.counts l) ~default:0 in
  Hashtbl.replace t.counts l (n + 1)

let note_edge t from_ to_ =
  let key = (from_, to_) in
  let n = Option.value (Hashtbl.find_opt t.edges key) ~default:0 in
  Hashtbl.replace t.edges key (n + 1)

let edge_bias t ~from_ ~taken ~fallthrough =
  let c l = Option.value (Hashtbl.find_opt t.edges (from_, l)) ~default:0 in
  let ct = c taken and cf = c fallthrough in
  let total = ct + cf in
  if total < min_edge_samples then None
  else Some (float_of_int ct /. float_of_int total)

let count t l = Option.value (Hashtbl.find_opt t.counts l) ~default:0
let is_hot t l = count t l >= t.hot

let is_cold_relative t ~seed_count l =
  float_of_int (count t l) < (cold_fraction *. float_of_int seed_count)

let hot_threshold t = t.hot
