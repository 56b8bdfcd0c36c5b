open Rcoe_util

type t = {
  profile : Arch.profile;
  mem : Mem.t;
  buses : Bus.t array;
  cores : Core.t array;
  mutable devices : Device.t array;
  mutable now : int;
  mutable irq_route : int;
  ipi_pending : int array;
  trace : Rcoe_obs.Trace.t;
}

let create ?trace ~profile ~mem_words ~ncores ~seed () =
  let root = Rng.create seed in
  let cores =
    Array.init ncores (fun id -> Core.create ~id ~jitter_seed:(Rng.next root))
  in
  let trace =
    match trace with Some tr -> tr | None -> Rcoe_obs.Trace.disabled ()
  in
  let t =
    {
      profile;
      mem = Mem.create mem_words;
      buses =
        (* Fair-share lanes: each core owns an equal slice of the bus
           bandwidth. A single core (Base mode) keeps the whole rate, so
           unreplicated runs are unchanged; replicated runs divide the
           bandwidth evenly instead of by stepping order, which is both
           the paper's Table V model and free of cross-core state — each
           replica's memory timing depends only on its own lane. *)
        (let lane_rate = profile.Arch.bus_rate /. float_of_int ncores in
         Array.init ncores (fun _ -> Bus.create ~rate:lane_rate));
      cores;
      devices = [||];
      now = 0;
      irq_route = 0;
      ipi_pending = Array.make ncores max_int;
      trace;
    }
  in
  Rcoe_obs.Trace.set_clock trace (fun () -> t.now);
  t

let add_device t dev =
  t.devices <- Array.append t.devices [| dev |];
  Array.length t.devices - 1

(* A loop: an [Array.iter] closure would be allocated every cycle. *)
let tick_devices t =
  let devs = t.devices in
  for i = 0 to Array.length devs - 1 do
    (Array.unsafe_get devs i).Device.dev_tick ~now:t.now
  done

let tick t =
  t.now <- t.now + 1;
  tick_devices t

let bus_lane t ~core_id = t.buses.(core_id)

let dev_read t dpn off =
  if dpn >= 0 && dpn < Array.length t.devices then
    t.devices.(dpn).Device.read_reg off
  else 0

let dev_write t dpn off v =
  if dpn >= 0 && dpn < Array.length t.devices then
    t.devices.(dpn).Device.write_reg off v

let pending_irq t ~core_id =
  if core_id <> t.irq_route then None
  else
    let devs = t.devices in
    let n = Array.length devs in
    let i = ref 0 in
    while !i < n && not (devs.(!i).Device.irq_pending ()) do
      incr i
    done;
    if !i < n then Some !i else None

let ack_irq t dpn =
  if dpn >= 0 && dpn < Array.length t.devices then begin
    Rcoe_obs.Trace.dev_irq t.trace ~dpn;
    t.devices.(dpn).Device.irq_ack ()
  end

let send_ipi t ~target =
  if target >= 0 && target < Array.length t.ipi_pending then begin
    Rcoe_obs.Trace.ipi t.trace ~target;
    t.ipi_pending.(target) <-
      min t.ipi_pending.(target) (t.now + t.profile.Arch.ipi_latency)
  end

let clear_ipi t ~core_id = t.ipi_pending.(core_id) <- max_int

let route_irqs_to t core_id = t.irq_route <- core_id
