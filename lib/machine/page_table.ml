type pte = {
  valid : bool;
  writable : bool;
  dma : bool;
  device : bool;
  ppn : int;
}

let invalid_pte = { valid = false; writable = false; dma = false; device = false; ppn = 0 }

let encode p =
  (if p.valid then 1 else 0)
  lor (if p.writable then 2 else 0)
  lor (if p.dma then 4 else 0)
  lor (if p.device then 8 else 0)
  lor (p.ppn lsl 8)

let decode w =
  {
    valid = w land 1 <> 0;
    writable = w land 2 <> 0;
    dma = w land 4 <> 0;
    device = w land 8 <> 0;
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

let translate mem t ~vaddr ~write =
  let vpn = vpn_of vaddr in
  if vaddr < 0 || vpn >= t.npages then No_mapping
  else
    let pte = decode (Mem.read mem (t.base + vpn)) in
    if not pte.valid then No_mapping
    else if write && not pte.writable then Not_writable
    else
      let off = offset_of vaddr in
      if pte.device then Device (pte.ppn, off)
      else Phys ((pte.ppn lsl page_shift) lor off)
