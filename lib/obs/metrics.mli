(** Named counter/gauge/histogram registry.

    Replaces the hand-maintained ad-hoc stats records: subsystems
    register named instruments once at construction time and bump them
    on the hot path; the harness reads everything back by name or as a
    rendered table. Registration of a duplicate name raises — two
    subsystems silently sharing a counter is a bug, and the [@trace]
    CI alias relies on this check. *)

type t

type counter
type gauge
type histogram

val create : unit -> t

(** {2 Registration} — raises [Invalid_argument] on a duplicate name. *)

val counter : t -> string -> counter
val gauge : t -> string -> gauge

val histogram : t -> string -> histogram
(** Exact sample storage: every observation is kept. *)

val hdr : t -> string -> Hdr.t
(** Bounded-memory log-linear latency histogram ({!Hdr}); preferred over
    [histogram] for per-request latency recording, whose sample count
    grows with the run length. *)

val gauge_or : t -> string -> gauge
(** Find-or-register: returns the existing gauge of that name, or
    registers a fresh one. For refresh-on-read metrics (the [net.] and
    [trace.] families) that are set every time the registry is read. *)

(** {2 Hot path} *)

val incr : ?by:int -> counter -> unit
val set : gauge -> float -> unit
val observe : histogram -> float -> unit

(** {2 Reading} *)

val count : counter -> int
val value : gauge -> float
val samples : histogram -> float list
(** Oldest first. *)

val names : t -> string list
(** Registration order. *)

val find_counter : t -> string -> counter option
val find_gauge : t -> string -> gauge option
val find_histogram : t -> string -> histogram option
val find_hdr : t -> string -> Hdr.t option

val to_table : t -> Rcoe_util.Table.t
(** One row per instrument: name, kind, count/value/n, and for
    histograms mean, p50, p95 and max from {!Rcoe_util.Stats}. *)
