(* Every field is a float, so OCaml stores the record flat and the
   mutators below allocate nothing. *)
type t = { bus_rate : float; max_credit : float; mutable credit : float }

let create ~rate = { bus_rate = rate; max_credit = 4.0; credit = 4.0 }

let tick t = t.credit <- Float.min t.max_credit (t.credit +. t.bus_rate)

let try_acquire t n =
  let need = float_of_int n in
  if t.credit >= need then begin
    t.credit <- t.credit -. need;
    true
  end
  else false

let advance t ~cycles =
  (* [cycles] applications of [tick], which stop once the lane is full:
     a full lane stays full ([min max (max + rate) = max] for a
     non-negative rate), so the rest would change nothing. The refill
     is a running floating-point sum, so its credit after [k] ticks is
     not [k * rate] rounded: a closed form would round differently. *)
  let i = ref 0 in
  while !i < cycles && t.credit <> t.max_credit do
    tick t;
    incr i
  done

let rate t = t.bus_rate

type state = float

let state t = t.credit
let set_state t s = t.credit <- s
