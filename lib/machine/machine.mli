(** The multicore machine: physical memory, shared bus, cores, devices,
    and interrupt routing.

    External (device) interrupts are routed to a single core — the
    primary replica's core under RCoE; re-routing on primary removal is
    part of error masking (paper Section IV-A). Inter-processor
    interrupts are modelled as per-core pending flags with a delivery
    latency. *)

type t = {
  profile : Arch.profile;
  mem : Mem.t;
  buses : Bus.t array;
      (** One fair-share bus lane per core: lane [i] refills at
          [bus_rate / ncores] and is touched only by core [i], so a
          replica's memory timing is independent of the order replicas
          are stepped in — a prerequisite for stepping them on separate
          domains. A single-core machine keeps the full rate. The
          machine does not tick the lanes: each moves with its core,
          through [Kernel.step], {!Blockc.run} and the replica
          scheduler's step (see {!Bus.tick}). *)
  cores : Core.t array;
  mutable devices : Device.t array;  (** Index = device page id. *)
  mutable now : int;  (** Global cycle counter. *)
  mutable irq_route : int;  (** Core id receiving device interrupts. *)
  ipi_pending : int array;  (** Per-core cycle at which a pending IPI
                                becomes visible; [max_int] = none. *)
  trace : Rcoe_obs.Trace.t;  (** Event sink; disabled unless given. *)
}

val create :
  ?trace:Rcoe_obs.Trace.t ->
  profile:Arch.profile ->
  mem_words:int ->
  ncores:int ->
  seed:int ->
  unit ->
  t
(** Cores get distinct deterministic jitter streams derived from
    [seed]. The trace's clock is pointed at this machine's cycle
    counter. *)

val add_device : t -> Device.t -> int
(** Register a device; returns its device page id. *)

val tick : t -> unit
(** Advance global time one cycle and tick the devices. Core stepping
    and bus-lane refill are driven by the replica scheduler, not here.
    Allocates nothing. *)

val tick_devices : t -> unit
(** Run the device ticks for the current [now] without advancing time —
    the parallel engine's catch-up after jumping [now] to a window
    boundary: devices drain everything due by [now] in one call, exactly
    as per-cycle ticking would have by then. *)

val bus_lane : t -> core_id:int -> Bus.t
(** The per-core bus lane (see {!type-t}). *)

val dev_read : t -> int -> int -> int
(** [dev_read m dpn off]; unknown device pages read 0. *)

val dev_write : t -> int -> int -> int -> unit

val pending_irq : t -> core_id:int -> int option
(** The lowest device page id with its interrupt line raised, if device
    interrupts are routed to [core_id]. *)

val ack_irq : t -> int -> unit
(** Acknowledge (lower) a device's interrupt line. *)

val send_ipi : t -> target:int -> unit
(** Raise an IPI to core [target]; it becomes visible after the
    profile's IPI latency. *)

val clear_ipi : t -> core_id:int -> unit

val route_irqs_to : t -> int -> unit
