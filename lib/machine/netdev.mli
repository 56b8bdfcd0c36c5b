(** Simulated network card with descriptor rings and DMA.

    The device DMAs received packets directly into a physical-memory
    region that is *outside* the sphere of replication (only the primary
    replica's driver sees the real device; the DMA region is not
    replicated). This preserves the paper's residual vulnerability: bit
    flips in DMA buffers are invisible to the replication machinery and
    surface as silent data corruption (Table VII "YCSB corruptions").

    The ingress-verification extension narrows (but does not close) the
    hole: [inject] computes a per-frame Fletcher checksum at enqueue
    time — before the payload ever reaches the DMA region — and exposes
    it through the RX_CSUM descriptor register, so a consumer that
    recomputes the checksum over the buffer it actually read can detect
    corruption between DMA write and consume. RX_NACK drops the head
    frame without consuming it; its slot re-arms only once the driver
    has observed the drop (next RX_COUNT read), so a queued delivery
    can never overwrite a dropped frame the driver still believes is
    the ring head.

    Register map (word offsets within the device page):
    - 0 [RX_COUNT] (r): packets waiting in the RX ring
    - 1 [RX_ADDR] (r): DMA-region word offset of the head packet
    - 2 [RX_LEN] (r): length of the head packet in words
    - 3 [RX_CONSUME] (w): pop the head packet
    - 4 [TX_ADDR] (w): DMA-region word offset of the packet to send
    - 5 [TX_LEN] (w): its length
    - 6 [TX_DOORBELL] (w): transmit
    - 7 [IRQ_STATUS] (r): 1 if the interrupt line is raised
    - 8 [RX_CSUM] (r): enqueue-time Fletcher checksum of the head packet
    - 9 [RX_NACK] (w): drop the head packet; quarantine its slot *)

type t

val reg_rx_count : int
val reg_rx_addr : int
val reg_rx_len : int
val reg_rx_consume : int
val reg_tx_addr : int
val reg_tx_len : int
val reg_tx_doorbell : int
val reg_irq_status : int
val reg_rx_csum : int
val reg_rx_nack : int

val slot_words : int
(** Fixed RX slot size (64 words); injected packets must fit. *)

val create : mem:Mem.t -> dma_base:int -> dma_words:int -> t
(** The DMA region must hold at least two RX slots plus TX space; the RX
    ring uses the first half, TX may use the second. Raises
    [Invalid_argument] if too small. *)

val device : t -> Device.t

val inject : t -> now:int -> int array -> unit
(** Host side: enqueue a packet for delivery (at the next device tick at
    or after [now]). Raises [Invalid_argument] if longer than
    [slot_words]. *)

val pending_host_packets : t -> int

val take_tx : t -> (int * int array) list
(** Drain transmitted packets as [(completion_cycle, payload)] in
    transmission order. *)

val next_event : t -> after:int -> int option
(** The earliest cycle [>= after] at which the device could spontaneously
    change machine state or demand attention: [after] itself if the
    interrupt line is already raised, else the delivery cycle of the
    queued head packet (clamped to [after + 1]); [None] when quiescent
    (wedged, nothing queued, or the RX ring full — deliveries then wait
    on a driver consume, which only user code triggers). The parallel
    engine uses this to clip execution windows so that device activity
    lands on the same cycle as under sequential stepping. *)

val next_delivery : t -> after:int -> int option
(** The delivery cycle of the queued head packet (clamped to
    [after + 1]), [None] when no delivery can happen without a driver
    action (wedged, nothing queued, or the RX ring full): {!next_event}
    without the interrupt line. A delivery DMAs the frame into the ring
    and calls the [on_rx] observer with its cycle, so a run that steps
    many cycles at once stops short of it even in phases where nobody
    polls the interrupt line. *)

val set_wedged : t -> bool -> unit
(** A wedged NIC stops delivering queued packets and raising interrupts
    (the overclocking campaigns use this for catastrophic I/O-path
    failures; the host keeps queueing into the void). *)

val rx_dropped : t -> int
(** Packets dropped because the RX ring was full (diagnostic). *)

val rx_nacked : t -> int
(** Frames dropped by the driver via RX_NACK (ingress-checksum
    mismatches); each awaits client retransmission. *)

val rx_csum_reads : t -> int
(** RX_CSUM register reads — one per ingress verification, whichever
    driver flavour performs it (guest MMIO in LC, kernel-mediated
    [FT_Mem_Rep] in CC). *)

val head_rx : t -> (int * int) option
(** [(slot_offset, len)] of the head RX frame, if any — the frame the
    driver will consume next. Used by the fault injector to target an
    in-flight DMA buffer ("input buffers outside the SoR"). *)

val rx_ring_hwm : t -> int
(** High-water mark of RX ring occupancy (slots in use after a
    delivery). *)

val tx_pending_hwm : t -> int
(** High-water mark of transmitted-but-undrained packets sitting in the
    TX completion list between [take_tx] calls. *)

val tx_sent : t -> int
(** Total TX doorbell transmissions. *)

val set_observers :
  t ->
  ?on_rx:(now:int -> int array -> unit) ->
  ?on_consume:(now:int -> int array -> unit) ->
  ?on_tx:(now:int -> int array -> unit) ->
  unit ->
  unit
(** Install host-side packet observers, called with the device-clock
    cycle and payload when a packet is DMA'd into the RX ring
    ([on_rx]), popped by the driver via RX_CONSUME ([on_consume]), and
    transmitted via TX_DOORBELL ([on_tx]). One call replaces all three:
    an omitted argument {e clears} that observer, so
    [set_observers t ()] resets the device to untapped and a reused
    device never retains callbacks into a dead trace sink. They are
    pure taps for request tracing: the device takes the same steps on
    the same cycles whether or not they are installed, so Seq/Par
    determinism is unaffected. *)

val rx_region_bounds : t -> int * int
(** [(base, words)] of the RX slot area within physical memory — the
    part of the DMA region the device writes; used by the fault injector
    to target "input buffers outside the SoR". *)

val set_host_tap : t -> ?on_inject:(now:int -> int array -> unit) -> unit -> unit
(** Install (or, omitted, clear) the host-boundary tap: [on_inject]
    fires on every {!inject} with inject's own arguments. [inject] is
    the single host action whose effect the guest can observe, so
    logging it is sufficient to replay a run's entire external input —
    this is what feeds the replay engine's [Inputlog]. A pure observer,
    separate
    from {!set_observers} so request tracing and input logging can
    coexist. *)

type snapshot
(** Complete device state at a point in time (rings, queues, slot
    accounting, IRQ line, TX latch, counters). Payload arrays are
    shared with the live device — safe, as payloads are immutable after
    [inject]. *)

val snapshot : t -> snapshot
val restore : t -> snapshot -> unit
(** The replay engine snapshots the primary's device at each chunk cut
    and restores it into a shadow machine's device, so a replayed chunk
    sees bit-identical device behaviour — delivery cycles included —
    without the device itself being inside the sphere of replication. *)
