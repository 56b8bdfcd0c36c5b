(* The sequential execution engine: the reference semantics. Every
   simulated cycle ticks the machine, steps each replica in rid order on
   the calling domain, and advances the round state machine. The
   parallel engine ([Engine_par]) is required to be bit-for-bit
   equivalent to this loop. *)

open Sched

(* One step of a run that started at cycle [start]: a quiescent burst on
   the block-compiled backend when one is possible (see
   [Sched.burst_cycles] for the bit-identity argument), else one classic
   cycle. The burst budget never crosses [max_cycles], and with a [stop]
   callback it also never crosses a 128-cycle poll boundary, so the poll
   fires at exactly the cycles per-cycle stepping would poll at. Returns
   false when [stop] asks the run to end. *)
let step ?stop t ~start ~max_cycles =
  let budget = max_cycles - (now t - start) in
  let budget =
    match stop with
    | Some _ -> min budget (128 - (now t land 127))
    | None -> budget
  in
  (match burst_cycles t ~budget with
  | Some _ -> ()
  | None -> classic_cycle t);
  match stop with Some f when now t land 127 = 0 -> not (f t) | _ -> true

let run ?stop t ~max_cycles =
  let start = now t in
  let continue_ = ref true in
  while
    !continue_ && t.halt = None
    && (not (finished t))
    && now t - start < max_cycles
  do
    continue_ := step ?stop t ~start ~max_cycles
  done
