(** SMARQ — the public facade.

    Re-exports the subsystem libraries under one roof and provides the
    high-level entry points most users want: run a program or a
    benchmark under a named alias-detection scheme. *)

module Ir = Ir
module Hw = Hw
module Vliw = Vliw
module Frontend = Frontend
module Analysis = Analysis
module Sched = Sched
module Opt = Opt
module Runtime = Runtime
module Tcache = Tcache
module Workload = Workload
module Check = Check

(** Named alias-detection schemes for the command line and harness. *)
module Scheme = struct
  type t =
    | Smarq of int  (** ordered queue with n alias registers *)
    | Smarq_no_store_reorder of int
    | Naive_order of int
        (** program-order allocation on the queue (Section 2.4) *)
    | Alat
    | Efficeon
    | None_
    | None_static  (** no hardware, constant-base static analysis only *)

  let to_driver = function
    | Smarq n -> Runtime.Driver.scheme_smarq ~ar_count:n ()
    | Smarq_no_store_reorder n ->
      Runtime.Driver.scheme_smarq_no_store_reorder ~ar_count:n ()
    | Naive_order n -> Runtime.Driver.scheme_naive_order ~ar_count:n ()
    | Alat -> Runtime.Driver.scheme_alat ()
    | Efficeon -> Runtime.Driver.scheme_efficeon ()
    | None_ -> Runtime.Driver.scheme_none ()
    | None_static -> Runtime.Driver.scheme_none_with_analysis ()

  let name = function
    | Smarq n -> Printf.sprintf "smarq%d" n
    | Smarq_no_store_reorder n -> Printf.sprintf "smarq%d-nosr" n
    | Naive_order n -> Printf.sprintf "naive%d" n
    | Alat -> "alat"
    | Efficeon -> "efficeon"
    | None_ -> "none"
    | None_static -> "none+static"

  (** Largest alias-register count a scheme name may ask for. *)
  let max_alias_registers = 1024

  (** [of_string s] parses a scheme name, ignoring case: [alat]
      ([itanium]), [efficeon], [none] ([baseline]), [none+static]
      ([static]), and [smarqN], [smarqN-nosr], [naiveN] for a decimal
      register count 1 <= N <= 1024 ([max_alias_registers]); a bare
      [smarq] or [naive] means N = 64.  [of_string (name t) = t] for
      every [t] in range.  Raises [Invalid_argument] on any other
      name. *)
  let of_string s =
    let s = String.lowercase_ascii s in
    (* [Some n] when [s] is [prefix ^ n ^ suffix] with [n] decimal
       digits; a count out of range is an error, not a miss *)
    let count ~prefix ~suffix =
      let lp = String.length prefix in
      let len = String.length s - lp - String.length suffix in
      if
        len <= 0
        || (not (String.starts_with ~prefix s))
        || not (String.ends_with ~suffix s)
      then None
      else
        let digits = String.sub s lp len in
        if not (String.for_all (fun c -> c >= '0' && c <= '9') digits) then
          None
        else
          match int_of_string_opt digits with
          | Some n when n >= 1 && n <= max_alias_registers -> Some n
          | _ ->
            invalid_arg
              (Printf.sprintf
                 "scheme %S: alias register count must be 1..%d" s
                 max_alias_registers)
    in
    match s with
    | "alat" | "itanium" -> Alat
    | "efficeon" -> Efficeon
    | "none" | "baseline" -> None_
    | "none+static" | "static" -> None_static
    | "smarq" -> Smarq 64
    | "naive" -> Naive_order 64
    | _ -> (
      match
        List.find_map
          (fun (prefix, suffix, make) ->
            Option.map make (count ~prefix ~suffix))
          [
            ("smarq", "-nosr", fun n -> Smarq_no_store_reorder n);
            ("smarq", "", fun n -> Smarq n);
            ("naive", "", fun n -> Naive_order n);
          ]
      with
      | Some t -> t
      | None -> invalid_arg (Printf.sprintf "unknown scheme %S" s))

  let all = [ Smarq 64; Smarq 16; Alat; Efficeon; None_ ]
end

(** The VLIW configuration a scheme runs under by default: schemes with
    an alias-register count size the machine's window to match. *)
let config_for = function
  | Scheme.Smarq n | Scheme.Smarq_no_store_reorder n | Scheme.Naive_order n ->
    Vliw.Config.with_alias_registers Vliw.Config.default n
  | Scheme.Alat | Scheme.Efficeon | Scheme.None_ | Scheme.None_static ->
    Vliw.Config.default

let run_program ?config ?fuel ?unroll ?tcache_policy ?tcache_capacity
    ?verify ?capture ?certify ~scheme program =
  let cfg = match config with Some c -> c | None -> config_for scheme in
  Runtime.Driver.run ~config:cfg ?fuel ?unroll ?tcache_policy ?tcache_capacity
    ?verify ?capture ?certify
    ~scheme:(Scheme.to_driver scheme)
    program

let run_benchmark ?config ?fuel ?scale ?tcache_policy ?tcache_capacity
    ?verify ?certify ~scheme name =
  let bench = Workload.Specfp.find name in
  run_program ?config ?fuel ?tcache_policy ?tcache_capacity ?verify
    ?certify ~scheme
    (Workload.Specfp.program ?scale bench)
