(** Exact sample quantiles (p50/p95/p99/p99.9) for latency reporting.

    The one reusable home for percentile math: the serve subsystem and
    the bench harness both summarize request latencies through this
    module rather than hand-rolling sort-and-index.  Samples are stored
    exactly (a doubling array), so every statistic is deterministic for
    a given [add] sequence; the sorted view is computed lazily and
    cached between queries. *)

type t

val create : unit -> t
val add : t -> float -> unit

val count : t -> int
val total : t -> float
(** Sum of all samples — e.g. aggregate simulated seconds. *)

val mean : t -> float

val percentile : t -> float -> float
(** [percentile t q] with [q] in [0, 1] is the nearest-rank quantile:
    the smallest sample with at least [q * count] samples at or below
    it ([q = 0.5] the median, [q = 1.0] the maximum).  0 when empty;
    raises [Invalid_argument] outside [0, 1]. *)

val merge : into:t -> t -> unit
(** Fold every sample of [t] into [into]. *)

type summary = {
  n : int;
  mean_v : float;
  min_v : float;
  max_v : float;
  p50 : float;
  p95 : float;
  p99 : float;
  p999 : float;
}

val summary : t -> summary

val summary_json : unit:string -> summary -> string
(** One JSON object; [unit] suffixes the field names (["s"] gives
    [mean_s], [p50_s], ...). *)

val pp_summary : Format.formatter -> summary -> unit
