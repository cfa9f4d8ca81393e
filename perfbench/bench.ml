(* Repository benchmark: times the whole dynamic optimizer (interpret ->
   form region -> translate -> execute with alias detection -> roll back
   / re-optimize) from outside, through its public entry points.

   One process, one domain, a closed batch: each job is one
   [Runtime.Driver.run] and the next starts when it returns.  The
   untraced run (--trace 0) reports the end-to-end metrics; the traced
   run (--trace 1) wraps the scheme's detector, the driver hooks and the
   capture callback to split each job's wall time by layer.  See
   README.md for the workloads, the layer map and the tracing method. *)

module Driver = Smarq.Runtime.Driver
module Stats = Smarq.Runtime.Stats
module Scheme = Smarq.Scheme
module Detector = Smarq.Hw.Detector
module Machine = Smarq.Vliw.Machine

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Workloads *)

type spec = {
  scale : int;  (** Specfp iteration multiplier *)
  schemes : Scheme.t list;
  unroll : int;
  fault_rate : float option;  (** [Some r]: a [Verify.Fault.plan] per job *)
  campaigns : int;  (** jobs per (program, scheme), each with its own plan *)
  gen_programs : int;  (** seeded [Genprog] programs appended *)
  gen_iters : int;
}

let spec_of = function
  | "exec-suite" ->
    Some
      {
        scale = 4;
        schemes = Scheme.all;
        unroll = 1;
        fault_rate = None;
        campaigns = 1;
        gen_programs = 2;
        gen_iters = 400;
      }
  | "translate-unroll8" ->
    Some
      {
        scale = 1;
        schemes = [ Scheme.Smarq 64 ];
        unroll = 8;
        fault_rate = None;
        campaigns = 1;
        gen_programs = 2;
        gen_iters = 100;
      }
  | "fault-recovery" ->
    Some
      {
        scale = 1;
        schemes = [ Scheme.Smarq 64; Scheme.Alat ];
        unroll = 1;
        fault_rate = Some 0.05;
        (* a program's recovery work swings with its campaign (storms
           drive whole regions up the re-optimization ladder), so each
           program runs under several, averaging the swing out of a
           pass *)
        campaigns = 3;
        gen_programs = 0;
        gen_iters = 0;
      }
  | _ -> None

(* a splitmix-style mix so neighbouring seeds give unrelated streams *)
let mix seed k =
  let z = (seed * 0x9E3779B1) + (k * 0x85EBCA77) + 0x165667B1 in
  let z = (z lxor (z lsr 29)) * 0xC2B2AE3D in
  (z lxor (z lsr 32)) land 0x3FFFFFFF

let build_programs spec ~seed =
  let suite =
    List.map
      (fun (b : Smarq.Workload.Specfp.bench) ->
        (b.name, Smarq.Workload.Specfp.program ~scale:spec.scale b))
      Smarq.Workload.Specfp.suite
  in
  let gen =
    List.init spec.gen_programs (fun k ->
        let s = mix seed k in
        ( Printf.sprintf "gen%d" s,
          Smarq.Workload.Genprog.program ~seed:s ~n_loops:3
            ~iters:spec.gen_iters ))
  in
  Array.of_list (suite @ gen)

type job = {
  id : int;
  label : string;
  prog : int;  (** index into the program array *)
  scheme : Scheme.t;
  plan_seed : int;
}

let make_jobs spec ~seed programs =
  Array.to_list programs
  |> List.mapi (fun p (name, _) ->
         List.concat_map
           (fun s -> List.init spec.campaigns (fun c -> (p, name, s, c)))
           spec.schemes)
  |> List.concat
  |> List.mapi (fun id (prog, name, scheme, c) ->
         {
           id;
           label =
             (name ^ "/" ^ Scheme.name scheme
             ^ if spec.campaigns > 1 then Printf.sprintf "#%d" c else "");
           prog;
           scheme;
           plan_seed = mix (seed + 7919) id;
         })
  |> Array.of_list

(* ------------------------------------------------------------------ *)
(* Statistics helpers *)

let sorted a =
  let a = Array.copy a in
  Array.sort compare a;
  a

(* linear-interpolated quantile, as Python's statistics.quantiles *)
let quantile a q =
  let a = sorted a in
  let n = Array.length a in
  if n = 0 then nan
  else if n = 1 then a.(0)
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1)
    else
      let f = pos -. float_of_int i in
      a.(i) +. (f *. (a.(i + 1) -. a.(i)))

let median a = quantile a 0.5

let time f =
  let t0 = now () in
  let x = f () in
  (x, now () -. t0)

(* ------------------------------------------------------------------ *)
(* Tracing: the layer intervals between public calls *)

(* events on the job's timeline; each interval is charged to a layer by
   the event that opened it (and, after a dispatch, the one closing it) *)
type event =
  | Start  (** [Driver.run] entered *)
  | Dispatch  (** [hooks.before_dispatch] *)
  | Entry  (** detector [reset] from [Region_exec.run] *)
  | Exit  (** detector [checks_performed] closing the region *)
  | Capture  (** [capture]: a translation starts *)
  | Stop  (** [Driver.run] returned *)

type layers = {
  mutable frontend : float;
  mutable tcache : float;
  mutable opt : float;
  mutable vliw : float;  (** region entry -> exit, hw included *)
  mutable runtime : float;
}

let zero_layers () =
  { frontend = 0.; tcache = 0.; opt = 0.; vliw = 0.; runtime = 0. }

type tracer = {
  mutable last : float;
  mutable last_event : event;
  mutable in_region : bool;
  lay : layers;
}

let mark tr ev =
  let t = now () in
  let dt = t -. tr.last in
  let l = tr.lay in
  (match tr.last_event, ev with
  | Dispatch, Entry -> l.tcache <- l.tcache +. dt
  | Dispatch, _ -> l.frontend <- l.frontend +. dt
  | Entry, _ -> l.vliw <- l.vliw +. dt
  | Capture, _ -> l.opt <- l.opt +. dt
  | (Start | Exit | Stop), _ -> l.runtime <- l.runtime +. dt);
  tr.last <- t;
  tr.last_event <- ev

(* The detector call stream, as the hardware model saw it (below any
   fault-injection layer), with its verdicts.  Calls are logged as ints
   (op code and operands) plus the instruction of each memory call, so
   logging allocates nothing per call beyond the growing buffers. *)
module Vec = struct
  type 'a t = {
    mutable data : 'a array;
    mutable len : int;
    dummy : 'a;
  }

  let create dummy = { data = Array.make 1024 dummy; len = 0; dummy }

  let push v x =
    if v.len = Array.length v.data then begin
      let d = Array.make (2 * v.len) v.dummy in
      Array.blit v.data 0 d 0 v.len;
      v.data <- d
    end;
    Array.unsafe_set v.data v.len x;
    v.len <- v.len + 1
end

let op_reset = 0
and op_mem = 1
and op_rotate = 2
and op_amov = 3

type hw_log = {
  ops : int Vec.t;  (** op code, then its int operands *)
  instrs : Smarq.Ir.Instr.t Vec.t;  (** one per memory call *)
  verdicts : (unit, Detector.violation) result Vec.t;  (** likewise *)
}

(* one log, cleared for every traced job, so its buffers grow only once *)
let log =
  let nop = Smarq.Ir.Instr.make ~id:(-1) Smarq.Ir.Instr.Nop in
  { ops = Vec.create 0; instrs = Vec.create nop; verdicts = Vec.create (Ok ()) }

let clear_log () =
  log.ops.Vec.len <- 0;
  log.instrs.Vec.len <- 0;
  log.verdicts.Vec.len <- 0

let logging_detector (d : Detector.t) =
  {
    d with
    Detector.reset =
      (fun () ->
        Vec.push log.ops op_reset;
        d.Detector.reset ());
    on_mem =
      (fun i a ->
        Vec.push log.ops op_mem;
        Vec.push log.ops a.Smarq.Hw.Access.lo;
        Vec.push log.ops a.Smarq.Hw.Access.hi;
        Vec.push log.instrs i;
        let v = d.Detector.on_mem i a in
        Vec.push log.verdicts v;
        v);
    on_rotate =
      (fun n ->
        Vec.push log.ops op_rotate;
        Vec.push log.ops n;
        d.Detector.on_rotate n);
    on_amov =
      (fun ~src ~dst ->
        Vec.push log.ops op_amov;
        Vec.push log.ops src;
        Vec.push log.ops dst;
        d.Detector.on_amov ~src ~dst);
  }

let tracing_detector tr (d : Detector.t) =
  {
    d with
    Detector.reset =
      (fun () ->
        mark tr Entry;
        tr.in_region <- true;
        d.Detector.reset ());
    checks_performed =
      (fun () ->
        (* [Region_exec.run] reads the counter before [reset] and once
           more when the region commits or rolls back *)
        if tr.in_region then begin
          tr.in_region <- false;
          mark tr Exit
        end;
        d.Detector.checks_performed ());
  }

(* Replays a logged stream into a fresh detector of the same scheme,
   timed in bulk; returns (seconds, verdicts, checks_performed).  The
   access ranges are rebuilt before the clock starts, as the executor
   hands the detector ready-made ranges. *)
let replay_hw (fresh : Detector.t) =
  let ops = log.ops.Vec.data and n = log.ops.Vec.len in
  let accesses = Array.make log.instrs.Vec.len { Smarq.Hw.Access.lo = 0; hi = 0 } in
  let k = ref 0 and pc = ref 0 in
  while !pc < n do
    let op = ops.(!pc) in
    if op = op_mem then begin
      accesses.(!k) <- { Smarq.Hw.Access.lo = ops.(!pc + 1); hi = ops.(!pc + 2) };
      incr k;
      pc := !pc + 3
    end
    else pc := !pc + (if op = op_reset then 1 else if op = op_rotate then 2 else 3)
  done;
  let instrs = log.instrs.Vec.data in
  let verdicts = Array.make log.instrs.Vec.len (Ok ()) in
  k := 0;
  pc := 0;
  let t0 = now () in
  while !pc < n do
    let p = !pc in
    let op = ops.(p) in
    if op = op_mem then begin
      let i = !k in
      verdicts.(i) <- fresh.Detector.on_mem instrs.(i) accesses.(i);
      k := i + 1;
      pc := p + 3
    end
    else if op = op_reset then begin
      fresh.Detector.reset ();
      pc := p + 1
    end
    else if op = op_rotate then begin
      fresh.Detector.on_rotate ops.(p + 1);
      pc := p + 2
    end
    else begin
      fresh.Detector.on_amov ~src:ops.(p + 1) ~dst:ops.(p + 2);
      pc := p + 3
    end
  done;
  let dt = now () -. t0 in
  (dt, verdicts, fresh.Detector.checks_performed ())

(* ------------------------------------------------------------------ *)
(* Running one job *)

type check = {
  mutable failed : int;
  mutable attempted : int;
  mutable errors : string list;  (** first few failure messages *)
}

let fail chk msg =
  if List.length chk.errors < 10 then chk.errors <- msg :: chk.errors

(* the deterministic counters a host-speed change must leave alone *)
let counters (s : Stats.t) =
  [|
    s.Stats.total_cycles;
    s.Stats.region_entries;
    s.Stats.rollbacks;
    s.Stats.reoptimizations;
    s.Stats.alias_checks;
    s.Stats.regions_built;
  |]

type ctx = {
  spec : spec;
  programs : (string * Smarq.Ir.Program.t) array;
  reference : Machine.t array;
  jobs : job array;
  expect : int array option array;  (** counters of the first pass *)
  chk : check;
}

(* one traced job: its layer intervals and the two offline replays *)
type traced = {
  lay : layers;
  root : float;  (** the [Driver.run] span *)
  hw_s : float;  (** bulk replay of the detector call stream *)
  mems : int;  (** [on_mem] calls *)
  checks : int;  (** [checks_performed] at the end of the job *)
  violations : int;
  translations : int;  (** captured optimize requests *)
  replay : Exec.Translate.result;
}

(* Runs one job; [trace] turns the tracing wrappers on.  Returns the
   job's [Driver.run] wall time, its stats (if it completed a run) and
   the traced record. *)
let run_job ctx ~trace job =
  let spec = ctx.spec in
  let config = Smarq.config_for job.scheme in
  let base = Scheme.to_driver job.scheme in
  let raw = base.Driver.detector in
  clear_log ();
  let tr =
    { last = 0.; last_event = Start; in_region = false; lay = zero_layers () }
  in
  let det = if trace then logging_detector raw else raw in
  let det, hooks =
    match spec.fault_rate with
    | None -> (det, Driver.no_hooks)
    | Some rate ->
      let plan = Verify.Fault.plan ~seed:job.plan_seed ~rate () in
      (Verify.Fault.wrap plan det, Verify.Fault.hooks plan)
  in
  let requests = ref [] in
  let det, hooks, capture =
    if not trace then (det, hooks, None)
    else
      ( tracing_detector tr det,
        {
          hooks with
          Driver.before_dispatch =
            (fun l ->
              mark tr Dispatch;
              hooks.Driver.before_dispatch l);
        },
        Some
          (fun r ->
            mark tr Capture;
            requests := r :: !requests) )
  in
  let scheme = { base with Driver.detector = det } in
  let program = snd ctx.programs.(job.prog) in
  let chk = ctx.chk in
  chk.attempted <- chk.attempted + 1;
  let t0 = now () in
  tr.last <- t0;
  let result =
    try
      Ok
        (Driver.run ~config ~fuel:1_000_000_000 ~unroll:spec.unroll ~hooks
           ?capture ~scheme program)
    with e -> Error e
  in
  let wall =
    if trace then begin
      mark tr Stop;
      tr.last -. t0
    end
    else now () -. t0
  in
  let problems, stats =
    match result with
    | Error e -> ([ "exception " ^ Printexc.to_string e ], None)
    | Ok r ->
      let s = r.Driver.stats in
      let expected =
        match ctx.expect.(job.id) with
        | Some c -> c
        | None ->
          ctx.expect.(job.id) <- Some (counters s);
          counters s
      in
      ( List.filter_map
          (fun (bad, msg) -> if bad then Some msg else None)
          [
            (r.Driver.outcome <> Driver.Completed, "not completed");
            ( not
                (Machine.equal_guest_state r.Driver.machine
                   ctx.reference.(job.prog)),
              "guest state differs from the reference interpreter" );
            (s.Stats.certified_alias_faults > 0, "certified alias fault");
            ( expected <> counters s,
              "deterministic counters changed between passes" );
          ],
        Some s )
  in
  if problems <> [] then chk.failed <- chk.failed + 1;
  List.iter (fun p -> fail chk (job.label ^ ": " ^ p)) problems;
  let traced =
    if not trace then None
    else begin
      let hw_s, verdicts, checks =
        replay_hw (Scheme.to_driver job.scheme).Driver.detector
      in
      let logged = Array.sub log.verdicts.Vec.data 0 log.verdicts.Vec.len in
      if verdicts <> logged || checks <> raw.Detector.checks_performed () then
        fail chk (job.label ^ ": hw replay did not reproduce the detector");
      let requests = List.rev !requests in
      let translations = List.length requests in
      (match stats with
      | Some s
        when translations <> s.Stats.regions_built + s.Stats.reoptimizations
        ->
        fail chk (job.label ^ ": captured requests <> regions_built + reopts")
      | _ -> ());
      Some
        {
          lay = tr.lay;
          root = wall;
          hw_s;
          mems = Array.length logged;
          checks;
          violations =
            Array.fold_left
              (fun n v -> match v with Error _ -> n + 1 | Ok () -> n)
              0 logged;
          translations;
          replay = Exec.Translate.replay ~jobs:1 ~config requests;
        }
    end
  in
  (wall, stats, traced)

(* One pass over every job: the summed [Driver.run] wall time, each
   job's stats, and each job's traced record when [trace].  Each pass
   starts from a collected heap, so earlier passes' garbage is not
   charged to it. *)
let pass ctx ~trace =
  Gc.full_major ();
  let runs = Array.map (run_job ctx ~trace) ctx.jobs in
  ( Array.fold_left (fun acc (w, _, _) -> acc +. w) 0. runs,
    Array.to_list runs |> List.filter_map (fun (_, s, _) -> s),
    Array.to_list runs |> List.filter_map (fun (_, _, t) -> t) )

(* ------------------------------------------------------------------ *)
(* Output *)

let json_number x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

let print_result ~correct ~chk metrics =
  List.iter
    (fun (name, v, unit) -> Printf.printf "  %-28s %18.6f %s\n" name v unit)
    metrics;
  let body =
    String.concat ", "
      (List.map
         (fun (name, v, unit) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
             (json_number v) unit)
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct chk.attempted chk.failed body

let is_queue = function
  | Scheme.Smarq _ | Scheme.Smarq_no_store_reorder _ | Scheme.Naive_order _ ->
    true
  | Scheme.Alat | Scheme.Efficeon | Scheme.None_ | Scheme.None_static -> false

(* The per-layer metrics of the traced passes ([passes]: one list of
   traced jobs per pass, newest first).  Times are means per traced pass;
   counts are per pass, from [stats] (they repeat exactly). *)
let layer_metrics ctx ~stats ~passes ~build_s ~ref_interp_s ~guest_instrs =
  let jobs = Array.to_list ctx.jobs in
  let n = float_of_int (List.length passes) in
  let avg f =
    List.fold_left
      (fun a p -> List.fold_left2 (fun a j t -> a +. f j t) a jobs p)
      0. passes
    /. n
  in
  let last = List.hd passes in
  let count f = float_of_int (List.fold_left (fun a t -> a + f t) 0 last) in
  let sum f = List.fold_left (fun a s -> a + f s) 0 stats in
  let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b in
  let hw_s = avg (fun _ t -> t.hw_s) in
  let frontend = avg (fun _ t -> t.lay.frontend)
  and tcache = avg (fun _ t -> t.lay.tcache)
  and opt = avg (fun _ t -> t.lay.opt)
  and vliw = avg (fun _ t -> t.lay.vliw) -. hw_s
  and runtime = avg (fun _ t -> t.lay.runtime)
  and root = avg (fun _ t -> t.root) in
  let self_sum = frontend +. tcache +. opt +. vliw +. hw_s +. runtime in
  Printf.printf "per-job spans of the last traced pass (seconds):\n";
  Printf.printf "  %-20s %9s %9s %9s %9s %9s %9s %9s\n" "job" "root"
    "frontend" "tcache" "opt" "vliw" "hw" "runtime";
  List.iter2
    (fun job t ->
      let l = t.lay in
      Printf.printf "  %-20s %9.5f %9.5f %9.5f %9.5f %9.5f %9.5f %9.5f\n"
        job.label t.root l.frontend l.tcache l.opt (l.vliw -. t.hw_s) t.hw_s
        l.runtime)
    jobs last;
  Printf.printf
    "layer self times sum %.6f s, traced job wall %.6f s (%d traced passes)\n"
    self_sum root (List.length passes);
  if Float.abs (self_sum -. root) > 1e-6 *. root || vliw < 0. then
    fail ctx.chk "layer self times do not partition the traced job wall time";
  let entries = sum (fun s -> s.Stats.region_entries) in
  let reopts = sum (fun s -> s.Stats.reoptimizations) in
  let translations = int_of_float (count (fun t -> t.translations)) in
  let replay_s = avg (fun _ t -> t.replay.Exec.Translate.wall_seconds) in
  let profile f = avg (fun _ t -> f t.replay.Exec.Translate.profile) in
  let module P = Smarq.Sched.Profile in
  let on_mem = count (fun t -> t.mems) in
  let stat name f = (name, float_of_int (sum f), "count") in
  [
    ("workload.build_s", build_s, "s");
    ("frontend.self_s", frontend, "s");
    stat "frontend.instrs_interpreted" (fun s -> s.Stats.instrs_interpreted);
    ("frontend.ref_interp_s", ref_interp_s, "s");
    ("frontend.ref_guest_instrs", float_of_int guest_instrs, "count");
    ("runtime.self_s", runtime, "s");
    stat "runtime.blocks_dispatched" (fun s -> s.Stats.blocks_dispatched);
    stat "runtime.rollbacks" (fun s -> s.Stats.rollbacks);
    stat "runtime.reoptimizations" (fun s -> s.Stats.reoptimizations);
    stat "runtime.pinned_ops" (fun s -> s.Stats.pinned_ops);
    stat "runtime.gave_up_regions" (fun s -> s.Stats.gave_up_regions);
    stat "runtime.degraded_regions" (fun s -> s.Stats.degraded_regions);
    ( "runtime.commit_ratio",
      ratio (sum (fun s -> s.Stats.region_commits)) entries,
      "ratio" );
    ("tcache.lookup_s", tcache, "s");
    stat "tcache.hits" (fun s -> s.Stats.tcache_hits);
    stat "tcache.misses" (fun s -> s.Stats.tcache_misses);
    stat "tcache.chain_follows" (fun s -> s.Stats.tcache_chain_follows);
    ( "tcache.chain_ratio",
      ratio (sum (fun s -> s.Stats.tcache_chain_follows)) entries,
      "ratio" );
    ("opt.self_s", opt, "s");
    ("opt.translations", float_of_int translations, "count");
    ("opt.reopt_share", ratio reopts translations, "ratio");
    ("opt.replay_s", replay_s, "s");
    ( "opt.regions_per_s",
      (if replay_s = 0. then 0. else float_of_int translations /. replay_s),
      "1/s" );
    ( "opt.instrs",
      count (fun t -> t.replay.Exec.Translate.profile.P.instrs),
      "count" );
    ("opt.alias_s", profile (fun p -> p.P.alias_s), "s");
    ("opt.depgraph_s", profile (fun p -> p.P.depgraph_s), "s");
    ("opt.hazards_s", profile (fun p -> p.P.hazards_s), "s");
    ("opt.alloc_s", profile (fun p -> p.P.alloc_s), "s");
    ("opt.sched_s", profile (fun p -> p.P.sched_s), "s");
    ("opt.emit_s", profile (fun p -> p.P.emit_s), "s");
    ("vliw.self_s", vliw, "s");
    ("vliw.region_entries", float_of_int entries, "count");
    ( "vliw.ns_per_region_entry",
      (if entries = 0 then 0. else vliw /. float_of_int entries *. 1e9),
      "ns" );
    stat "vliw.region_cycles" (fun s -> s.Stats.region_cycles);
    stat "vliw.total_cycles" (fun s -> s.Stats.total_cycles);
    ("hw.queue_s", avg (fun j t -> if is_queue j.scheme then t.hw_s else 0.), "s");
    ("hw.other_s", avg (fun j t -> if is_queue j.scheme then 0. else t.hw_s), "s");
    ("hw.on_mem_calls", on_mem, "count");
    ("hw.alias_checks", count (fun t -> t.checks), "count");
    ("hw.violations", count (fun t -> t.violations), "count");
    ( "hw.ns_per_on_mem",
      (if on_mem = 0. then 0. else hw_s /. on_mem *. 1e9),
      "ns" );
    stat "verify.injected_faults" (fun s -> s.Stats.injected_faults);
    stat "verify.spurious_rollbacks" (fun s -> s.Stats.spurious_rollbacks);
    ("trace.job_wall_s", root, "s");
  ]

(* ------------------------------------------------------------------ *)
(* Main *)

let usage =
  "bench --workload (exec-suite|translate-unroll8|fault-recovery) --seed N \
   --seconds S --trace (0|1)"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0
  and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let spec =
    match spec_of !workload with
    | Some s -> s
    | None ->
      prerr_endline ("unknown workload " ^ !workload ^ "\n" ^ usage);
      exit 2
  in
  let trace = !trace = 1 and seed = !seed in
  (* Set-up: build the programs, then run the reference interpreter on
     each for its final state and guest instruction count.  The first
     set-up's outputs are used.  It is repeated before every untraced
     pass (outside the pass's timing), so its samples span the run like
     the passes' do, and the median is reported as [setup_s]: work moved
     out of the timed passes into set-up shows there. *)
  let setup_times = ref [] in
  let setup () =
    let programs, build_s = time (fun () -> build_programs spec ~seed) in
    let reference, ref_s =
      time (fun () ->
          Array.map (fun (_, p) -> Verify.Oracle.reference p) programs)
    in
    let ref_instrs =
      Array.map
        (fun (_, p) ->
          let m = Machine.create () in
          (Smarq.Frontend.Interp.run ~fuel:200_000_000 m p)
            .Smarq.Frontend.Interp.instrs_executed)
        programs
    in
    (programs, reference, ref_instrs, build_s, ref_s)
  in
  let timed_setup () =
    let ((_, _, _, build_s, ref_s) as out), total = time setup in
    setup_times := (total, build_s, ref_s) :: !setup_times;
    out
  in
  let programs, reference, ref_instrs, _, _ = timed_setup () in
  let jobs = make_jobs spec ~seed programs in
  let chk = { failed = 0; attempted = 0; errors = [] } in
  let ctx =
    {
      spec;
      programs;
      reference;
      jobs;
      expect = Array.make (Array.length jobs) None;
      chk;
    }
  in
  let guest_instrs =
    Array.fold_left (fun n j -> n + ref_instrs.(j.prog)) 0 jobs
  in
  Printf.printf
    "workload %s seed %d: %d programs, %d jobs, %d guest instrs per pass\n%!"
    !workload seed (Array.length programs) (Array.length jobs) guest_instrs;
  (* warm-up pass: fills caches, records the deterministic counters *)
  let _, stats, _ = pass ctx ~trace:false in
  let sum f = List.fold_left (fun a s -> a + f s) 0 stats in
  Printf.printf
    "per pass: %d region entries, %d rollbacks, %d regions built, %d \
     reoptimizations, %d simulated cycles\n%!"
    (sum (fun s -> s.Stats.region_entries))
    (sum (fun s -> s.Stats.rollbacks))
    (sum (fun s -> s.Stats.regions_built))
    (sum (fun s -> s.Stats.reoptimizations))
    (sum (fun s -> s.Stats.total_cycles));
  let deadline = now () +. !seconds in
  let walls = ref [] and traced_walls = ref [] and passes = ref [] in
  while
    now () < deadline
    || List.length !walls < 3
    || (trace && List.length !passes < 3)
  do
    ignore (timed_setup ());
    let w, _, _ = pass ctx ~trace:false in
    walls := w :: !walls;
    if trace then begin
      let w, _, t = pass ctx ~trace:true in
      traced_walls := w :: !traced_walls;
      passes := t :: !passes
    end
  done;
  let walls = Array.of_list (List.rev !walls) in
  let wall_s = median walls in
  let setup_median f = median (Array.of_list (List.map f !setup_times)) in
  let setup_s = setup_median (fun (t, _, _) -> t)
  and build_s = setup_median (fun (_, b, _) -> b)
  and ref_interp_s = setup_median (fun (_, _, r) -> r) in
  Printf.printf "wall_s per pass:%s\n"
    (String.concat ""
       (Array.to_list (Array.map (Printf.sprintf " %.4f") walls)));
  Printf.printf
    "wall_s median %.6f q1 %.6f q3 %.6f n %d; failed_frac %.6f (%d/%d)\n"
    wall_s (quantile walls 0.25) (quantile walls 0.75) (Array.length walls)
    (float_of_int chk.failed /. float_of_int chk.attempted)
    chk.failed chk.attempted;
  let metrics =
    if not trace then
      [
        ("wall_s", wall_s, "s");
        ("guest_mips", float_of_int guest_instrs /. wall_s /. 1e6, "Minstr/s");
        ("setup_s", setup_s, "s");
        ( "peak_heap_mb",
          float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
          /. 1048576.,
          "MB" );
      ]
    else
      layer_metrics ctx ~stats ~passes:!passes ~build_s ~ref_interp_s
        ~guest_instrs
      @ [
          ( "trace.overhead_frac",
            (median (Array.of_list !traced_walls) /. wall_s) -. 1.,
            "ratio" );
        ]
  in
  List.iter (fun e -> Printf.printf "FAIL %s\n" e) (List.rev chk.errors);
  print_result ~correct:(chk.errors = [] && chk.failed = 0) ~chk metrics
