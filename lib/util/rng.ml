(* The SplitMix64 state lives unboxed in 8 bytes: a mutable [int64]
   record field is a pointer to a boxed int64, so every step of a
   record-held state allocates one. The 8 bytes sit at offset [off] of a
   zeroed 128-byte block, so no other object lies within a 64-byte cache
   line of them: each core's jitter stream is drawn on every executed
   instruction, and the parallel engine and the replay checkers step
   cores on different domains, where two states sharing a line would
   move it between CPUs on every draw. *)
type t = Bytes.t

let off = 64

let golden_gamma = 0x9E3779B97F4A7C15L

let of_int64 s =
  let t = Bytes.make 128 '\000' in
  Bytes.set_int64_le t off s;
  t

let create seed = of_int64 (Int64.of_int seed)

let mix z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let bits64 t =
  let s = Int64.add (Bytes.get_int64_le t off) golden_gamma in
  Bytes.set_int64_le t off s;
  mix s

let split t = of_int64 (mix (bits64 t))

let copy = Bytes.copy

let assign ~dst ~src = Bytes.blit src off dst off 8

let next t = Int64.to_int (Int64.shift_right_logical (bits64 t) 2)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  next t mod bound

let bool t = Int64.logand (bits64 t) 1L = 1L

let threshold p =
  if not (p > 0.0) then 0
  else if p >= 1.0 then 1 lsl 53
  else int_of_float (Float.ceil (p *. 0x1p53))

(* [bits64] and [mix] written out in one body: an int64 passed to or
   returned from a call that is not inlined is boxed, and [below] runs
   once per executed instruction. *)
let below t thr =
  let s = Int64.add (Bytes.get_int64_le t off) golden_gamma in
  Bytes.set_int64_le t off s;
  let z = Int64.(mul (logxor s (shift_right_logical s 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  let z = Int64.(logxor z (shift_right_logical z 31)) in
  Int64.to_int (Int64.shift_right_logical z 11) < thr
