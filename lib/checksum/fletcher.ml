(* The running signature uses 32-bit blocks with mod-(2^32-1) reduction, a
   Fletcher-64-style construction: c0 accumulates values, c1 accumulates
   running c0, making the pair order-sensitive. *)

type t = { mutable c0 : int; mutable c1 : int }

let modulus = 0xFFFFFFFF (* 2^32 - 1 *)

let create () = { c0 = 0; c1 = 0 }

let reset t =
  t.c0 <- 0;
  t.c1 <- 0

let add_word t w =
  let w32 = w land 0xFFFFFFFF in
  t.c0 <- (t.c0 + w32) mod modulus;
  t.c1 <- (t.c1 + t.c0) mod modulus

(* Block size for deferred reduction in [add_words]. Both sums are
   linear mod (2^32-1), so reducing once per block instead of per word
   is exact; the bound keeps the unreduced accumulators inside a 63-bit
   int: after k deferred steps c0 < (k+1)*2^32 and c1 < (k^2+k+1)*2^32,
   so k = 4096 stays under 2^57. *)
let reduce_block = 4096

(* Feed words [pos, pos + len) of [ws]; the caller checks the range. *)
let add_range t ws pos len =
  let last = pos + len in
  let c0 = ref t.c0 and c1 = ref t.c1 in
  let i = ref pos in
  while !i < last do
    let stop = min last (!i + reduce_block) in
    let a0 = ref !c0 and a1 = ref !c1 in
    for j = !i to stop - 1 do
      a0 := !a0 + (Array.unsafe_get ws j land 0xFFFFFFFF);
      a1 := !a1 + !a0
    done;
    c0 := !a0 mod modulus;
    c1 := !a1 mod modulus;
    i := stop
  done;
  t.c0 <- !c0;
  t.c1 <- !c1

let add_words t ws = add_range t ws 0 (Array.length ws)

let block_sums ws ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Array.length ws then
    invalid_arg "Fletcher.block_sums: range outside the array";
  let t = create () in
  add_range t ws pos len;
  (t.c0, t.c1)

(* Feeding [len] words from (c0, c1) adds the block's own sums to both,
   and to c1 also [len] times the incoming c0 (each word's running c0
   carries it). Both sums are linear mod (2^32-1), so the composition is
   exact; [max_block_len] keeps [len * c0] inside a 63-bit int. *)
let max_block_len = 1 lsl 24

let add_block t ~len (s0, s1) =
  if len < 0 || len > max_block_len then
    invalid_arg "Fletcher.add_block: block length out of range";
  let c0 = t.c0 in
  t.c0 <- (c0 + s0) mod modulus;
  t.c1 <- (t.c1 + (len * c0) + s1) mod modulus

let add_string t s =
  let n = String.length s in
  let word_at i =
    let byte j = if i + j < n then Char.code s.[i + j] else 0 in
    byte 0 lor (byte 1 lsl 8) lor (byte 2 lsl 16) lor (byte 3 lsl 24)
  in
  let rec go i = if i < n then (add_word t (word_at i); go (i + 4)) in
  go 0

let value t = (t.c0, t.c1)

let digest t = (t.c1 lsl 32) lor t.c0

let equal a b = a.c0 = b.c0 && a.c1 = b.c1

let copy t = { c0 = t.c0; c1 = t.c1 }

(* Per-frame ingress checksum over machine words. Deliberately restricted
   to add/rem on small constants so the kvstore driver can compute the
   same digest in guest code (whose [Rem] is OCaml's [mod]) and the
   abstract interpreter can bound the accumulators: both sums live in
   [0, 65534] after each step, and the packed digest fits 32 bits. *)
let frame ws =
  let n = Array.length ws in
  let rec go i c0 c1 =
    if i >= n then (c1 * 65536) + c0
    else
      let c0 = (c0 + (ws.(i) mod 65535)) mod 65535 in
      let c1 = (c1 + c0) mod 65535 in
      go (i + 1) c0 c1
  in
  go 0 0 0

let fletcher32 s =
  let n = String.length s in
  let block_at i =
    let lo = Char.code s.[i] in
    let hi = if i + 1 < n then Char.code s.[i + 1] else 0 in
    lo lor (hi lsl 8)
  in
  let rec go i c0 c1 =
    if i >= n then (c1 lsl 16) lor c0
    else
      let c0 = (c0 + block_at i) mod 65535 in
      let c1 = (c1 + c0) mod 65535 in
      go (i + 2) c0 c1
  in
  go 0 0 0
