type pte = {
  valid : bool;
  writable : bool;
  dma : bool;
  device : bool;
  ppn : int;
}

let invalid_pte = { valid = false; writable = false; dma = false; device = false; ppn = 0 }

let valid_bit = 1
let writable_bit = 2
let dma_bit = 4
let device_bit = 8

let encode p =
  (if p.valid then valid_bit else 0)
  lor (if p.writable then writable_bit else 0)
  lor (if p.dma then dma_bit else 0)
  lor (if p.device then device_bit else 0)
  lor (p.ppn lsl 8)

let decode w =
  {
    valid = w land valid_bit <> 0;
    writable = w land writable_bit <> 0;
    dma = w land dma_bit <> 0;
    device = w land device_bit <> 0;
    ppn = w lsr 8;
  }

let page_shift = Mem.page_shift
let page_size = 1 lsl page_shift

type table = { base : int; npages : int }

let table_words t = t.npages

let check_vpn t vpn =
  if vpn < 0 || vpn >= t.npages then
    invalid_arg (Printf.sprintf "Page_table: vpn %d out of range" vpn)

let set mem t ~vpn pte =
  check_vpn t vpn;
  Mem.write mem (t.base + vpn) (encode pte)

let get mem t ~vpn =
  check_vpn t vpn;
  decode (Mem.read mem (t.base + vpn))

let clear mem t = Mem.fill mem ~addr:t.base ~len:t.npages 0

type resolution =
  | Phys of int
  | Device of int * int
  | No_mapping
  | Not_writable

let vpn_of vaddr = vaddr lsr page_shift
let offset_of vaddr = vaddr land (page_size - 1)

(* The walk: the entry word covering [vaddr], or 0 (an invalid entry)
   beyond the table. *)
let entry mem t vaddr =
  let vpn = vpn_of vaddr in
  if vaddr < 0 || vpn >= t.npages then 0 else Mem.read mem (t.base + vpn)

let frame_addr w vaddr = ((w lsr 8) lsl page_shift) lor offset_of vaddr

let ram_addr mem t ~vaddr ~write =
  let w = entry mem t vaddr in
  let need = if write then valid_bit lor writable_bit else valid_bit in
  if w land (need lor device_bit) = need then frame_addr w vaddr else -1

let translate mem t ~vaddr ~write =
  let w = entry mem t vaddr in
  if w land valid_bit = 0 then No_mapping
  else if write && w land writable_bit = 0 then Not_writable
  else if w land device_bit <> 0 then Device (w lsr 8, offset_of vaddr)
  else Phys (frame_addr w vaddr)
