(** Per-request lifecycle tracing for the serving harness.

    Each request (keyed by the wire-format sequence id) is stamped at
    the five points of its life: harness inject -> NIC DMA into the RX
    ring -> guest driver consume -> TX doorbell (response) -> harness
    receipt. From the stamps come the per-phase breakdowns (queue /
    ring / service / drain), and from the engine's {!Trace} span events
    comes an attribution of each request's latency to
    {compute, sync-wait, vote, checkpoint, rollback-stall,
    ingress-stall, replay-lag}: stall spans of the followed (lowest
    live) replica are clipped against the windows of the requests open
    while they ran, and compute is the remainder, so the attribution
    classes always sum exactly to the end-to-end total. Under replay
    detection, a mismatch verdict's detection-lag window (chunk end to
    verdict) is charged as [replay_lag] to the requests open during it
    — the time they were served under an undetected fault.

    The store is bounded: aggregates go to {!Hdr} histograms, and only
    the most recent [keep] completed records are retained for Perfetto
    export. Trace events are absorbed incrementally
    ({!Trace.events_since}), so feeding a reqtrace from the serve loop
    is O(new events) per poll. *)

type t

val create : ?keep:int -> unit -> t
(** [keep] (default 4096) bounds the completed-request records retained
    for {!chrome_events}; aggregates cover every request regardless. *)

(** {2 Lifecycle stamps} *)

val inject : t -> id:int -> now:int -> unit
val rx : t -> id:int -> now:int -> unit
val consume : t -> id:int -> now:int -> unit
val tx : t -> id:int -> now:int -> unit

val receipt : t -> id:int -> now:int -> status:int -> unit
(** Completes the request: folds its stamps into the phase histograms,
    clamps and closes its stall attribution, and retires the record. *)

val absorb : t -> Trace.t -> unit
(** Process engine trace events emitted since the previous [absorb]:
    sync/vote phase spans of the followed replica, checkpoint and
    rollback stall spans, and injection marks, attributed to the
    requests currently open. Call between execution chunks. *)

(** {2 Reading} *)

val open_requests : t -> int
val open_hwm : t -> int
val completed : t -> int

val e2e : t -> Hdr.t
(** Inject-to-receipt latency over all completed requests. *)

val attribution : t -> (string * int) list
(** Aggregate cycles per class over completed requests —
    [compute; sync_wait; vote; checkpoint; rollback_stall;
    ingress_stall; replay_lag] — summing exactly to [total_cycles]
    (also included, last). *)

val detect_hdr : t -> Hdr.t
(** Per-request detection latency: for every request open when a
    rollback or downgrade detected a divergence, the cycles from the
    last injection mark to that detection. *)

val stall_hdr : t -> Hdr.t
(** Per-request recovery stall: total rollback-restore cycles attributed
    to each affected request. *)

val ingress_hdr : t -> Hdr.t
(** Per-request ingress-drop stall: for each request whose frame was
    dropped at ingress verification, the cycles from the drop until the
    retransmitted frame was consumed — the drop-and-redeliver recovery
    lane's analogue of {!stall_hdr}. *)

val to_json : t -> Json.t

val chrome_events : t -> Json.t list
(** Perfetto track events (pid 2, "requests"): one complete event per
    retained request, laned by id, with phase/attribution args; plus
    process/thread metadata. *)
