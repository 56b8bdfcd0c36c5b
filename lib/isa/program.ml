type data_block = {
  block_label : string;
  block_addr : int;
  block_init : int array;
}

type t = {
  name : string;
  code : Instr.t array;
  data : data_block list;
  data_words : int;
  entry : int;
  code_labels : (string * int) list;
  branch_counted : bool;
}

let data_base = 0x10000

let label_addr t l = List.assoc l t.code_labels

let data_addr t l =
  match List.find_opt (fun b -> String.equal b.block_label l) t.data with
  | Some b -> b.block_addr
  | None -> raise Not_found

let data_image t =
  let img = Array.make t.data_words 0 in
  List.iter
    (fun b ->
      Array.blit b.block_init 0 img (b.block_addr - data_base)
        (Array.length b.block_init))
    t.data;
  img

let[@inline] float_to_word f = Int32.to_int (Int32.bits_of_float f) land 0xFFFFFFFF

let[@inline] word_to_float w =
  Int32.float_of_bits (Int32.of_int (w land 0xFFFFFFFF))

let get_float_word (regs : float array) i = float_to_word regs.(i)
let set_float_word (regs : float array) i w = regs.(i) <- word_to_float w

let disassemble t =
  let buf = Buffer.create 1024 in
  let labels_at addr =
    List.filter_map
      (fun (l, a) -> if a = addr then Some l else None)
      t.code_labels
  in
  Array.iteri
    (fun i instr ->
      List.iter (fun l -> Buffer.add_string buf (l ^ ":\n")) (labels_at i);
      Buffer.add_string buf (Printf.sprintf "%6d  %s\n" i (Instr.to_string instr)))
    t.code;
  Buffer.contents buf

let instruction_count t = Array.length t.code
