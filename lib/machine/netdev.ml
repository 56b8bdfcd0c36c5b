let reg_rx_count = 0
let reg_rx_addr = 1
let reg_rx_len = 2
let reg_rx_consume = 3
let reg_tx_addr = 4
let reg_tx_len = 5
let reg_tx_doorbell = 6
let reg_irq_status = 7
let reg_rx_csum = 8
let reg_rx_nack = 9

let slot_words = 64

(* [csum] is computed at enqueue time in [inject], before the payload
   ever touches the DMA region — wire-side ground truth that survives
   any fault injected into the buffer afterwards. *)
type rx_desc = { slot_offset : int; len : int; csum : int }

type t = {
  mem : Mem.t;
  dma_base : int;
  dma_words : int;
  nslots : int;
  host_q : (int * int array * int) Queue.t; (* deliver_at, payload, csum *)
  rx_ring : rx_desc Queue.t;
  (* Slot accounting. [free_slots] holds slots available for delivery;
     a consumed frame's slot returns immediately, a NACKed frame's slot
     is quarantined until the driver next reads RX_COUNT — otherwise a
     queued delivery could overwrite the dropped frame's slot before the
     driver has observed the drop (seen post-drop ring state). *)
  free_slots : int Queue.t;
  mutable quarantined : int list; (* NACKed slots, newest first *)
  mutable irq_line : bool;
  mutable tx_addr : int;
  mutable tx_len : int;
  mutable tx_done : (int * int array) list; (* reversed *)
  mutable dropped : int;
  mutable nacked : int;
  mutable csum_reads : int;
  mutable now_cache : int;
  mutable wedged : bool;
  (* Host-side observability. The observer callbacks are invoked with
     the device-clock cycle and the packet payload at the three ring
     transitions (RX delivery, driver consume, TX doorbell); they are
     pure observers — the simulation takes the same steps, on the same
     cycles, whether or not they are installed. *)
  mutable rx_hwm : int;
  mutable tx_hwm : int;
  mutable tx_sent : int;
  mutable on_rx : (now:int -> int array -> unit) option;
  mutable on_consume : (now:int -> int array -> unit) option;
  mutable on_tx : (now:int -> int array -> unit) option;
  (* Host-boundary tap: fires on [inject] — the one host action that
     mutates device state the guest can observe. The replay engine's
     input log hangs off this. Pure observer, like the three above. *)
  mutable on_inject : (now:int -> int array -> unit) option;
}

let create ~mem ~dma_base ~dma_words =
  let nslots = dma_words / 2 / slot_words in
  if nslots < 2 then invalid_arg "Netdev.create: DMA region too small";
  let free_slots = Queue.create () in
  for s = 0 to nslots - 1 do
    Queue.add s free_slots
  done;
  {
    mem;
    dma_base;
    dma_words;
    nslots;
    host_q = Queue.create ();
    rx_ring = Queue.create ();
    free_slots;
    quarantined = [];
    irq_line = false;
    tx_addr = 0;
    tx_len = 0;
    tx_done = [];
    dropped = 0;
    nacked = 0;
    csum_reads = 0;
    now_cache = 0;
    wedged = false;
    rx_hwm = 0;
    tx_hwm = 0;
    tx_sent = 0;
    on_rx = None;
    on_consume = None;
    on_tx = None;
    on_inject = None;
  }

(* One call replaces all three taps: an omitted argument clears that
   observer, so a device reused across runs never keeps a stale
   callback into a dead trace sink. *)
let set_observers t ?on_rx ?on_consume ?on_tx () =
  t.on_rx <- on_rx;
  t.on_consume <- on_consume;
  t.on_tx <- on_tx

let set_host_tap t ?on_inject () = t.on_inject <- on_inject

let inject t ~now payload =
  if Array.length payload > slot_words then
    invalid_arg "Netdev.inject: packet too long";
  Queue.add (now, payload, Rcoe_checksum.Fletcher.frame payload) t.host_q;
  match t.on_inject with Some f -> f ~now payload | None -> ()

let pending_host_packets t = Queue.length t.host_q

let take_tx t =
  let out = List.rev t.tx_done in
  t.tx_done <- [];
  out

let rx_dropped t = t.dropped
let rx_nacked t = t.nacked
let rx_csum_reads t = t.csum_reads
let rx_ring_hwm t = t.rx_hwm
let tx_pending_hwm t = t.tx_hwm
let tx_sent t = t.tx_sent

let rx_region_bounds t = (t.dma_base, t.nslots * slot_words)

let head_rx t =
  match Queue.peek_opt t.rx_ring with
  | Some d -> Some (d.slot_offset, d.len)
  | None -> None

let deliver t payload csum =
  match Queue.take_opt t.free_slots with
  | None -> t.dropped <- t.dropped + 1
  | Some slot ->
      let offset = slot * slot_words in
      Mem.write_block t.mem (t.dma_base + offset) payload;
      Queue.add
        { slot_offset = offset; len = Array.length payload; csum }
        t.rx_ring;
      let occ = Queue.length t.rx_ring in
      if occ > t.rx_hwm then t.rx_hwm <- occ;
      (match t.on_rx with Some f -> f ~now:t.now_cache payload | None -> ());
      t.irq_line <- true

let set_wedged t w = t.wedged <- w

let dev_tick t ~now =
  t.now_cache <- now;
  if t.wedged then ()
  else
  let rec drain () =
    match Queue.peek_opt t.host_q with
    | Some (at, payload, csum)
      when at <= now && not (Queue.is_empty t.free_slots) ->
        ignore (Queue.pop t.host_q);
        deliver t payload csum;
        drain ()
    | Some _ | None -> ()
  in
  drain ()

(* The cycle strictly after [after] at which the head of the host queue
   becomes deliverable (bounded below by the next tick). [None] when no
   delivery can happen on its own — wedged, queue empty, or no free RX
   slot (ring full, or every vacancy quarantined behind a NACK):
   deliveries then wait on a driver consume or ring-state read, which
   only user code triggers. *)
let next_delivery t ~after =
  if t.wedged || Queue.is_empty t.free_slots then None
  else
    match Queue.peek_opt t.host_q with
    | None -> None
    | Some (at, _, _) -> Some (max (after + 1) at)

(* The earliest cycle at which this device could change observable
   machine state on its own: [after] itself when the interrupt line is
   already up, else the next delivery. *)
let next_event t ~after =
  if (not t.wedged) && t.irq_line then Some after else next_delivery t ~after

(* A NACKed slot re-arms only once the driver reads RX_COUNT: the read
   is the first point at which the driver has observed the post-drop
   ring state, so no queued delivery can overwrite the dropped frame
   before then. Release order is oldest-first to keep delivery slot
   order a pure function of ring history. *)
let release_quarantine t =
  List.iter (fun s -> Queue.add s t.free_slots) (List.rev t.quarantined);
  t.quarantined <- []

let read_reg t off =
  if off = reg_rx_count then begin
    release_quarantine t;
    Queue.length t.rx_ring
  end
  else if off = reg_rx_addr then
    match Queue.peek_opt t.rx_ring with
    | Some d -> d.slot_offset
    | None -> -1
  else if off = reg_rx_len then
    match Queue.peek_opt t.rx_ring with Some d -> d.len | None -> 0
  else if off = reg_rx_csum then begin
    (* Each RX_CSUM read is one ingress verification, whichever driver
       flavour performs it (guest MMIO in LC, kernel-mediated in CC). *)
    t.csum_reads <- t.csum_reads + 1;
    match Queue.peek_opt t.rx_ring with Some d -> d.csum | None -> 0
  end
  else if off = reg_irq_status then if t.irq_line then 1 else 0
  else 0

let write_reg t off v =
  if off = reg_rx_consume then begin
    (match Queue.take_opt t.rx_ring with
    | Some d ->
        Queue.add (d.slot_offset / slot_words) t.free_slots;
        (match t.on_consume with
        | Some f ->
            let payload = Mem.read_block t.mem (t.dma_base + d.slot_offset) d.len in
            f ~now:t.now_cache payload
        | None -> ())
    | None -> ())
  end
  else if off = reg_rx_nack then begin
    match Queue.take_opt t.rx_ring with
    | Some d ->
        t.quarantined <- (d.slot_offset / slot_words) :: t.quarantined;
        t.nacked <- t.nacked + 1
    | None -> ()
  end
  else if off = reg_tx_addr then t.tx_addr <- v
  else if off = reg_tx_len then t.tx_len <- v
  else if off = reg_tx_doorbell then begin
    let len = max 0 (min t.tx_len (t.dma_words - t.tx_addr)) in
    let payload = Mem.read_block t.mem (t.dma_base + t.tx_addr) len in
    t.tx_done <- (t.now_cache, payload) :: t.tx_done;
    t.tx_sent <- t.tx_sent + 1;
    let occ = List.length t.tx_done in
    if occ > t.tx_hwm then t.tx_hwm <- occ;
    match t.on_tx with Some f -> f ~now:t.now_cache payload | None -> ()
  end

(* Full device-state snapshot for the replay engine's shadow machines.
   Payload arrays are shared, not copied: a payload is never mutated
   after [inject] (delivery copies it into DMA memory), so sharing is
   safe and keeps a snapshot O(queued descriptors). *)
type snapshot = {
  sn_host_q : (int * int array * int) list;
  sn_rx_ring : rx_desc list;
  sn_free_slots : int list;
  sn_quarantined : int list;
  sn_irq_line : bool;
  sn_tx_addr : int;
  sn_tx_len : int;
  sn_tx_done : (int * int array) list;
  sn_dropped : int;
  sn_nacked : int;
  sn_csum_reads : int;
  sn_now_cache : int;
  sn_wedged : bool;
  sn_rx_hwm : int;
  sn_tx_hwm : int;
  sn_tx_sent : int;
}

let snapshot t =
  {
    sn_host_q = List.of_seq (Queue.to_seq t.host_q);
    sn_rx_ring = List.of_seq (Queue.to_seq t.rx_ring);
    sn_free_slots = List.of_seq (Queue.to_seq t.free_slots);
    sn_quarantined = t.quarantined;
    sn_irq_line = t.irq_line;
    sn_tx_addr = t.tx_addr;
    sn_tx_len = t.tx_len;
    sn_tx_done = t.tx_done;
    sn_dropped = t.dropped;
    sn_nacked = t.nacked;
    sn_csum_reads = t.csum_reads;
    sn_now_cache = t.now_cache;
    sn_wedged = t.wedged;
    sn_rx_hwm = t.rx_hwm;
    sn_tx_hwm = t.tx_hwm;
    sn_tx_sent = t.tx_sent;
  }

let restore t s =
  Queue.clear t.host_q;
  List.iter (fun e -> Queue.add e t.host_q) s.sn_host_q;
  Queue.clear t.rx_ring;
  List.iter (fun d -> Queue.add d t.rx_ring) s.sn_rx_ring;
  Queue.clear t.free_slots;
  List.iter (fun sl -> Queue.add sl t.free_slots) s.sn_free_slots;
  t.quarantined <- s.sn_quarantined;
  t.irq_line <- s.sn_irq_line;
  t.tx_addr <- s.sn_tx_addr;
  t.tx_len <- s.sn_tx_len;
  t.tx_done <- s.sn_tx_done;
  t.dropped <- s.sn_dropped;
  t.nacked <- s.sn_nacked;
  t.csum_reads <- s.sn_csum_reads;
  t.now_cache <- s.sn_now_cache;
  t.wedged <- s.sn_wedged;
  t.rx_hwm <- s.sn_rx_hwm;
  t.tx_hwm <- s.sn_tx_hwm;
  t.tx_sent <- s.sn_tx_sent

let device t =
  {
    Device.dev_name = "netdev";
    read_reg = read_reg t;
    write_reg = write_reg t;
    dev_tick = (fun ~now -> dev_tick t ~now);
    irq_pending = (fun () -> t.irq_line);
    irq_ack = (fun () -> t.irq_line <- false);
  }
