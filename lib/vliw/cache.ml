type level_config = {
  size_bytes : int;
  line_bytes : int;
  ways : int;
  hit_latency : int;
}

type config = {
  l1 : level_config;
  l2 : level_config;
  memory_latency : int;
}

let default_config =
  {
    l1 = { size_bytes = 16_384; line_bytes = 64; ways = 4; hit_latency = 0 };
    l2 = { size_bytes = 262_144; line_bytes = 64; ways = 8; hit_latency = 8 };
    memory_latency = 40;
  }

(* One set-associative level: sets.(i) holds tags, most recent first. *)
type level = {
  cfg : level_config;
  sets : int list array;
  n_sets : int;
}

type stats = {
  mutable accesses : int;
  mutable l1_misses : int;
  mutable l2_misses : int;
}

type t = {
  l1 : level;
  l2 : level;
  memory_latency : int;
  st : stats;
}

let power_of_two n = n > 0 && n land (n - 1) = 0

let make_level cfg =
  if not (power_of_two cfg.line_bytes) then
    invalid_arg "Cache: line size must be a power of two";
  let n_sets = max 1 (cfg.size_bytes / (cfg.line_bytes * cfg.ways)) in
  { cfg; sets = Array.make n_sets []; n_sets }

let create (config : config) =
  {
    l1 = make_level config.l1;
    l2 = make_level config.l2;
    memory_latency = config.memory_latency;
    st = { accesses = 0; l1_misses = 0; l2_misses = 0 };
  }

(* Returns true on hit; inserts the line (LRU) either way. *)
let touch level ~addr =
  let line = addr / level.cfg.line_bytes in
  (* non-negative for negative addresses too *)
  let idx = ((line mod level.n_sets) + level.n_sets) mod level.n_sets in
  let set = level.sets.(idx) in
  let hit = List.mem line set in
  let without = List.filter (fun l -> l <> line) set in
  let updated = line :: without in
  level.sets.(idx) <-
    (if List.length updated > level.cfg.ways then
       List.filteri (fun i _ -> i < level.cfg.ways) updated
     else updated);
  hit

let access t ~addr =
  t.st.accesses <- t.st.accesses + 1;
  if touch t.l1 ~addr then t.l1.cfg.hit_latency
  else begin
    t.st.l1_misses <- t.st.l1_misses + 1;
    if touch t.l2 ~addr then t.l2.cfg.hit_latency
    else begin
      t.st.l2_misses <- t.st.l2_misses + 1;
      t.memory_latency
    end
  end

let stats t = t.st

let reset_stats t =
  t.st.accesses <- 0;
  t.st.l1_misses <- 0;
  t.st.l2_misses <- 0
