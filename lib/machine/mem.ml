exception Abort of int

let page_shift = 8
let page_size = 1 lsl page_shift

type t = { words : int array; dirty : bool array }

let create size =
  let npages = (size + page_size - 1) lsr page_shift in
  { words = Array.make size 0; dirty = Array.make npages false }

let size t = Array.length t.words

(* The first physical address a [addr, addr+len) transfer touches that
   lies outside memory: [addr] itself when negative or past the end,
   otherwise the first word beyond the array. *)
let first_oob t addr = max addr (Array.length t.words)

let mark_dirty t addr = Array.unsafe_set t.dirty (addr lsr page_shift) true

let mark_dirty_range t addr len =
  if len > 0 then
    for p = addr lsr page_shift to (addr + len - 1) lsr page_shift do
      Array.unsafe_set t.dirty p true
    done

(* Word copies through an [int]-typed loop, which stores without the
   write barrier that polymorphic [Array.blit] runs on every word of a
   major-heap destination. Copies downward when the ranges may overlap
   with [dst] above [src]. *)
let copy_words (src : int array) spos (dst : int array) dpos len =
  if dpos <= spos then
    for i = 0 to len - 1 do
      Array.unsafe_set dst (dpos + i) (Array.unsafe_get src (spos + i))
    done
  else
    for i = len - 1 downto 0 do
      Array.unsafe_set dst (dpos + i) (Array.unsafe_get src (spos + i))
    done

let read t addr =
  if addr < 0 || addr >= Array.length t.words then raise (Abort addr);
  Array.unsafe_get t.words addr

let write t addr v =
  if addr < 0 || addr >= Array.length t.words then raise (Abort addr);
  Array.unsafe_set t.words addr v;
  mark_dirty t addr

let blit t ~src ~dst ~len =
  let n = Array.length t.words in
  if len < 0 then invalid_arg "Mem.blit: negative length";
  if src < 0 then raise (Abort src);
  if src + len > n then raise (Abort (first_oob t src));
  if dst < 0 then raise (Abort dst);
  if dst + len > n then raise (Abort (first_oob t dst));
  copy_words t.words src t.words dst len;
  mark_dirty_range t dst len

let read_block t addr len =
  if addr < 0 || len < 0 then raise (Abort addr);
  if addr + len > Array.length t.words then raise (Abort (first_oob t addr));
  Array.sub t.words addr len

let write_block t addr block =
  let len = Array.length block in
  if addr < 0 then raise (Abort addr);
  if addr + len > Array.length t.words then raise (Abort (first_oob t addr));
  copy_words block 0 t.words addr len;
  mark_dirty_range t addr len

let sums t ~addr ~len =
  if addr < 0 || len < 0 then raise (Abort addr);
  if addr + len > Array.length t.words then raise (Abort (first_oob t addr));
  Rcoe_checksum.Fletcher.block_sums t.words ~pos:addr ~len

let all_zero t ~addr ~len =
  if addr < 0 || len < 0 then raise (Abort addr);
  if addr + len > Array.length t.words then raise (Abort (first_oob t addr));
  let i = ref addr in
  while !i < addr + len && Array.unsafe_get t.words !i = 0 do
    incr i
  done;
  !i = addr + len

let flip_bit t ~addr ~bit =
  if bit < 0 || bit > 61 then invalid_arg "Mem.flip_bit: bit out of range";
  write t addr (read t addr lxor (1 lsl bit))

let fill t ~addr ~len v =
  if addr < 0 || len < 0 then raise (Abort addr);
  if addr + len > Array.length t.words then raise (Abort (first_oob t addr));
  Array.fill t.words addr len v;
  mark_dirty_range t addr len

let page_is_dirty t ~addr = t.dirty.(addr lsr page_shift)

let snapshot_dirty t ~addr ~len =
  if len <= 0 then []
  else begin
    let n = Array.length t.words in
    if addr < 0 || addr + len > n then invalid_arg "Mem.snapshot_dirty";
    let acc = ref [] in
    for p = (addr + len - 1) lsr page_shift downto addr lsr page_shift do
      if Array.unsafe_get t.dirty p then acc := (p lsl page_shift) :: !acc
    done;
    !acc
  end

let clear_dirty t = Array.fill t.dirty 0 (Array.length t.dirty) false
