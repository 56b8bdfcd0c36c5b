(** Shared memory bus with bounded bandwidth.

    Cores acquire one credit per word transferred; credits refill at
    [rate] per global cycle up to a small burst allowance. A core that
    cannot acquire a credit stalls for that cycle and retries — this is
    what makes replicas of a memory-bound program contend, reproducing the
    Table V result that DMR/TMR divide the observable memory bandwidth on
    a machine whose single core can already saturate the bus.

    {b Lazy refill.} A lane does not refill when it ticks: it counts the
    ticks it is owed, and the next read of its credit ({!try_acquire},
    {!state}) first applies them one by one, in order, as per-cycle
    ticking would have, stopping at a full lane, which then stays full.
    No operation reads the credit in between, so the credit every read
    sees is bit-identical to ticking the lane every cycle (the test suite
    holds it against a lane refilled eagerly, at inexact rates, through
    random interleavings). The refill's cost moves from every cycle to
    the next read, and is bounded by the refill time, [max / rate]
    ticks, not by the cycles owed. *)

type t = {
  bus_rate : float;
  max_credit : float;
  mutable credit : float;  (** As of the last settle. *)
  mutable owed : float;
      (** Refill ticks not yet applied to [credit]: a whole number, exact
          up to 2{^53}. A float, so that every field is one and the
          record is stored flat: bumping it allocates nothing. *)
}
(** The record is visible so that {!Blockc.run}, the hot loop of the
    compiled backend, can count its cycles' ticks with a field write
    rather than a call (the dev build inlines nothing across modules).
    Only this module and {!Blockc.run} write [owed]; nothing outside
    this module writes the other fields. *)

val create : rate:float -> t
(** [rate] is in word-transfers per cycle. Burst allowance is fixed at
    4 credits. *)

val tick : t -> unit
(** Advance one global cycle: the lane is owed one more refill tick.
    Neither [tick] nor {!try_acquire} allocates. A lane ticks once per
    simulated cycle, whatever its core does: [Kernel.step] and
    {!Blockc.run} tick it for the cycles they step, [Sched.advance] for
    the others. O(1). *)

val advance : t -> cycles:int -> unit
(** [advance t ~cycles] is [cycles] applications of {!tick}, in O(1):
    the lane is owed [cycles] more refill ticks. *)

val try_acquire : t -> int -> bool
(** [try_acquire t n] applies the owed refill ticks, then takes [n]
    credits if available. *)

val rate : t -> float

type state = private float
(** The lane's mutable state at a point in time: its credit. *)

val state : t -> state
(** Apply the owed refill ticks and capture the lane's credit. Replay
    images save it at a chunk cut: credit refill is floating-point and
    path-dependent, so a shadow machine must restart from the exact
    saved value to stay cycle-identical with the primary. *)

val set_state : t -> state -> unit
(** Restore a previously captured state; the lane is owed nothing. *)
