(* Every field is a float, so OCaml stores the record flat and neither
   the mutators below nor [Blockc.run]'s field writes allocate. *)
type t = {
  bus_rate : float;
  max_credit : float;
  mutable credit : float;
  mutable owed : float;
}

let create ~rate = { bus_rate = rate; max_credit = 4.0; credit = 4.0; owed = 0.0 }

(* Apply the owed refill ticks, in order, as per-cycle ticking would have:
   each is [min max (credit + rate)], a running floating-point sum, so
   its credit after [k] ticks is not [k * rate] rounded and a closed form
   would round differently. The ticks stop once the lane is full: a full
   lane stays full ([min max (max + rate) = max] for a non-negative
   rate), so the rest would change nothing. *)
let settle t =
  while t.owed > 0.0 && t.credit <> t.max_credit do
    t.credit <- Float.min t.max_credit (t.credit +. t.bus_rate);
    t.owed <- t.owed -. 1.0
  done;
  t.owed <- 0.0

let tick t = t.owed <- t.owed +. 1.0
let advance t ~cycles = t.owed <- t.owed +. float_of_int cycles

let try_acquire t n =
  settle t;
  let need = float_of_int n in
  if t.credit >= need then begin
    t.credit <- t.credit -. need;
    true
  end
  else false

let rate t = t.bus_rate

type state = float

let state t =
  settle t;
  t.credit

let set_state t s =
  t.credit <- s;
  t.owed <- 0.0
