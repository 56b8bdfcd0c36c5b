open Rcoe_isa

(* --- Reg -------------------------------------------------------------- *)

let test_reg_roundtrip () =
  List.iter
    (fun r -> Alcotest.(check bool) "roundtrip" true
        (Reg.equal r (Reg.of_index (Reg.index r))))
    Reg.all;
  Alcotest.(check int) "count" 16 (List.length Reg.all)

let test_reg_of_index_rejects () =
  Alcotest.(check bool) "raises" true
    (try ignore (Reg.of_index 16); false with Invalid_argument _ -> true)

let test_freg_roundtrip () =
  for i = 0 to Reg.fcount - 1 do
    Alcotest.(check int) "roundtrip" i (Reg.findex (Reg.f_of_index i))
  done

let test_reserved_register_is_r9 () =
  Alcotest.(check int) "r9" 9 (Reg.index Reg.branch_counter)

(* --- Instr ------------------------------------------------------------ *)

let branchy =
  let open Instr in
  [
    B (Eq, Reg.R0, Imm 0, Abs 0); Jmp (Abs 0); Jal (Abs 0); Jr Reg.R3; Ret;
    Fb (Lt, Reg.F0, Reg.F1, Abs 0);
  ]

let non_branchy =
  let open Instr in
  [
    Nop; Halt; Mov (Reg.R1, Imm 3); Alu (Add, Reg.R1, Reg.R2, Imm 1);
    Ld (Reg.R1, Reg.R2, 0); St (Reg.R1, Reg.R2, 0); Syscall 3; Rep_movs;
    Cntinc; Ldex (Reg.R1, Reg.R2); Stex (Reg.R1, Reg.R2, Reg.R3);
  ]

let test_is_branch () =
  List.iter
    (fun i -> Alcotest.(check bool) (Instr.to_string i) true (Instr.is_branch i))
    branchy;
  List.iter
    (fun i -> Alcotest.(check bool) (Instr.to_string i) false (Instr.is_branch i))
    non_branchy

let test_rep_movs_not_a_branch () =
  (* The load-bearing property for the x86 rep-string problem. *)
  Alcotest.(check bool) "rep not branch" false (Instr.is_branch Instr.Rep_movs);
  Alcotest.(check bool) "rep is memory" true
    (Instr.is_memory_access Instr.Rep_movs)

let test_target_roundtrip () =
  List.iter
    (fun i ->
      match Instr.target_of i with
      | Some _ ->
          let i' = Instr.with_target i (Instr.Abs 42) in
          Alcotest.(check bool) "target set" true
            (Instr.target_of i' = Some (Instr.Abs 42))
      | None -> ())
    branchy

let test_with_target_rejects () =
  (* Every targetless instruction must refuse retargeting — including
     Jr and Ret, which branch but carry no static target. *)
  List.iter
    (fun i ->
      Alcotest.(check bool) (Instr.to_string i) true
        (try ignore (Instr.with_target i (Instr.Abs 0)); false
         with Invalid_argument _ -> true))
    (Instr.Jr Reg.R3 :: Instr.Ret :: non_branchy)

let test_eval_cond () =
  let open Instr in
  Alcotest.(check bool) "eq" true (eval_cond Eq 3 3);
  Alcotest.(check bool) "ne" true (eval_cond Ne 3 4);
  Alcotest.(check bool) "lt" true (eval_cond Lt (-1) 0);
  Alcotest.(check bool) "le" true (eval_cond Le 4 4);
  Alcotest.(check bool) "gt" false (eval_cond Gt 4 4);
  Alcotest.(check bool) "ge" true (eval_cond Ge 5 4)

(* --- Asm / Program ---------------------------------------------------- *)

let assemble_simple () =
  let a = Asm.create "t" in
  Asm.data a "tab" [| 7; 8; 9 |];
  Asm.space a "buf" 5;
  Asm.label a "main";
  Asm.la a Reg.R1 "tab";
  Asm.for_up a Reg.R2 ~start:0 ~stop:(Instr.Imm 3) (fun () ->
      Asm.ld a Reg.R3 Reg.R1 0;
      Asm.addi a Reg.R1 Reg.R1 1);
  Asm.ret a;
  Asm.assemble ~entry:"main" a

let test_assemble_resolves_everything () =
  let p = assemble_simple () in
  Alcotest.(check (list (pair int pass))) "no unresolved targets" []
    (Lint.unresolved_targets p);
  Alcotest.(check int) "entry at main" (Program.label_addr p "main") p.Program.entry

let test_data_layout () =
  let p = assemble_simple () in
  Alcotest.(check int) "tab at base" Program.data_base (Program.data_addr p "tab");
  Alcotest.(check int) "buf after tab" (Program.data_base + 3)
    (Program.data_addr p "buf");
  Alcotest.(check int) "total words" 8 p.Program.data_words;
  let img = Program.data_image p in
  Alcotest.(check int) "init copied" 8 img.(1);
  Alcotest.(check int) "bss zero" 0 img.(5)

let test_duplicate_label_rejected () =
  let a = Asm.create "t" in
  Asm.label a "x";
  Alcotest.(check bool) "raises" true
    (try Asm.label a "x"; false with Invalid_argument _ -> true)

let test_undefined_label_rejected () =
  let a = Asm.create "t" in
  Asm.jmp a "nowhere";
  Alcotest.(check bool) "raises" true
    (try ignore (Asm.assemble a); false with Invalid_argument _ -> true)

let test_duplicate_data_rejected () =
  let a = Asm.create "t" in
  Asm.data a "d" [| 1 |];
  Alcotest.(check bool) "raises" true
    (try Asm.data a "d" [| 2 |]; false with Invalid_argument _ -> true)

let test_undefined_entry_rejected () =
  let a = Asm.create "t" in
  Asm.nop a;
  Alcotest.(check bool) "raises" true
    (try ignore (Asm.assemble ~entry:"main" a); false
     with Invalid_argument _ -> true)

let test_float_word_roundtrip () =
  List.iter
    (fun f ->
      Alcotest.(check (float 1e-6)) "roundtrip" f
        (Program.word_to_float (Program.float_to_word f)))
    [ 0.0; 1.0; -1.0; 0.5; 3.25; -127.75 ]

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let test_disassemble_contains_labels () =
  let p = assemble_simple () in
  let d = Program.disassemble p in
  Alcotest.(check bool) "has main" true (contains d "main:")

(* --- Branch_count pass -------------------------------------------------- *)

let count_cntinc p =
  Array.fold_left
    (fun n i -> match i with Instr.Cntinc -> n + 1 | _ -> n)
    0 p.Program.code

let test_branch_count_inserts_before_every_branch () =
  let a = Asm.create "t" in
  Asm.label a "main";
  Asm.for_up a Reg.R2 ~start:0 ~stop:(Instr.Imm 3) (fun () -> Asm.nop a);
  Asm.jal a "f";
  Asm.ret a;
  Asm.label a "f";
  Asm.ret a;
  let p = Asm.assemble ~entry:"main" ~branch_count:true a in
  let code = p.Program.code in
  Array.iteri
    (fun i instr ->
      if Instr.is_branch instr then
        Alcotest.(check bool)
          (Printf.sprintf "cntinc before branch at %d" i)
          true
          (i > 0 && code.(i - 1) = Instr.Cntinc))
    code;
  Alcotest.(check int) "one cntinc per branch"
    (Branch_count.counted_branches code)
    (count_cntinc p)

let test_branch_count_idempotent () =
  let items =
    [
      Branch_count.I Instr.Nop;
      Branch_count.L "top";
      Branch_count.I (Instr.Jmp (Instr.Lbl "top"));
    ]
  in
  let once = Branch_count.insert items in
  let twice = Branch_count.insert once in
  Alcotest.(check int) "same length" (List.length once) (List.length twice)

let test_branch_count_label_stays_before_cntinc () =
  (* A jump to a label that precedes a branch must still execute the
     inserted increment: the label binds before the Cntinc. *)
  let a = Asm.create "t" in
  Asm.label a "main";
  Asm.movi a Reg.R4 0;
  Asm.label a "top";
  Asm.addi a Reg.R4 Reg.R4 1;
  Asm.b a Instr.Lt Reg.R4 (Instr.Imm 5) "top";
  Asm.ret a;
  let p = Asm.assemble ~entry:"main" ~branch_count:true a in
  let top = Program.label_addr p "top" in
  (* top points at the addi; the loop back-edge lands before it. *)
  Alcotest.(check bool) "label valid" true (top < Array.length p.Program.code)

let test_reserved_register_enforced () =
  let a = Asm.create "t" in
  Asm.label a "main";
  Asm.movi a Reg.R9 1;
  Asm.ret a;
  Alcotest.(check bool) "raises" true
    (try ignore (Asm.assemble ~entry:"main" ~branch_count:true a); false
     with Invalid_argument _ -> true)

let test_reserved_register_ok_without_pass () =
  let a = Asm.create "t" in
  Asm.label a "main";
  Asm.movi a Reg.R9 1;
  Asm.ret a;
  let p = Asm.assemble ~entry:"main" a in
  Alcotest.(check int) "one violation reported" 1
    (List.length (Lint.reserved_register_violations p))

let test_exclusives_scan () =
  let a = Asm.create "t" in
  Asm.label a "main";
  Asm.emit a (Instr.Ldex (Reg.R1, Reg.R2));
  Asm.emit a (Instr.Stex (Reg.R3, Reg.R1, Reg.R2));
  Asm.ret a;
  let p = Asm.assemble ~entry:"main" a in
  Alcotest.(check int) "two exclusives" 2 (List.length (Lint.exclusives p))

let test_rep_scan () =
  let a = Asm.create "t" in
  Asm.label a "main";
  Asm.emit a Instr.Rep_movs;
  Asm.ret a;
  let p = Asm.assemble ~entry:"main" a in
  Alcotest.(check int) "one rep" 1 (List.length (Lint.rep_strings p))

let raw_program code =
  (* The assembler cannot emit these shapes; build the record directly. *)
  {
    Program.name = "t";
    code;
    data = [];
    data_words = 0;
    entry = 0;
    code_labels = [ ("main", 0) ];
    branch_counted = false;
  }

let test_unresolved_negative_target () =
  let p = raw_program [| Instr.Jmp (Instr.Abs (-1)); Instr.Halt |] in
  Alcotest.(check int) "negative flagged" 1
    (List.length (Lint.unresolved_targets p))

let test_unresolved_target_at_code_length () =
  (* Abs = code length is the first invalid address: one past the last
     instruction. Abs = length - 1 is the last valid one. *)
  let open Instr in
  let bad = raw_program [| Jmp (Abs 2); Halt |] in
  Alcotest.(check int) "length flagged" 1
    (List.length (Lint.unresolved_targets bad));
  let ok = raw_program [| Jmp (Abs 1); Halt |] in
  Alcotest.(check int) "length - 1 accepted" 0
    (List.length (Lint.unresolved_targets ok))

let test_unresolved_symbolic_target () =
  let p = raw_program [| Instr.Jal (Instr.Lbl "ghost"); Instr.Halt |] in
  match Lint.unresolved_targets p with
  | [ (0, Instr.Jal (Instr.Lbl "ghost")) ] -> ()
  | _ -> Alcotest.fail "expected the symbolic Jal at address 0"

(* QCheck: the branch-counting pass preserves instruction order of the
   original program and inserts exactly one Cntinc per branch. *)
let qcheck_branch_count_structure =
  QCheck.Test.make ~name:"branch-count pass inserts one Cntinc per branch"
    ~count:200
    QCheck.(list_of_size Gen.(int_range 1 40) (int_bound 4))
    (fun shape ->
      let a = Asm.create "q" in
      Asm.label a "main";
      List.iteri
        (fun i k ->
          match k with
          | 0 -> Asm.nop a
          | 1 -> Asm.addi a Reg.R4 Reg.R4 1
          | 2 -> Asm.b a Instr.Eq Reg.R4 (Instr.Imm i) "main"
          | 3 -> Asm.jmp a "main"
          | _ -> Asm.ld a Reg.R5 Reg.R13 0)
        shape;
      Asm.ret a;
      let plain = Asm.assemble ~entry:"main" a in
      let a2 = Asm.create "q" in
      Asm.label a2 "main";
      List.iteri
        (fun i k ->
          match k with
          | 0 -> Asm.nop a2
          | 1 -> Asm.addi a2 Reg.R4 Reg.R4 1
          | 2 -> Asm.b a2 Instr.Eq Reg.R4 (Instr.Imm i) "main"
          | 3 -> Asm.jmp a2 "main"
          | _ -> Asm.ld a2 Reg.R5 Reg.R13 0)
        shape;
      Asm.ret a2;
      let counted = Asm.assemble ~entry:"main" ~branch_count:true a2 in
      let branches = Branch_count.counted_branches plain.Program.code in
      Array.length counted.Program.code
      = Array.length plain.Program.code + branches
      && count_cntinc counted = branches)

let suite =
  [
    Alcotest.test_case "reg index roundtrip" `Quick test_reg_roundtrip;
    Alcotest.test_case "reg of_index rejects" `Quick test_reg_of_index_rejects;
    Alcotest.test_case "freg roundtrip" `Quick test_freg_roundtrip;
    Alcotest.test_case "reserved register is r9" `Quick test_reserved_register_is_r9;
    Alcotest.test_case "is_branch classification" `Quick test_is_branch;
    Alcotest.test_case "rep-movs is not a branch" `Quick test_rep_movs_not_a_branch;
    Alcotest.test_case "target roundtrip" `Quick test_target_roundtrip;
    Alcotest.test_case "with_target rejects" `Quick test_with_target_rejects;
    Alcotest.test_case "eval_cond" `Quick test_eval_cond;
    Alcotest.test_case "assemble resolves" `Quick test_assemble_resolves_everything;
    Alcotest.test_case "data layout" `Quick test_data_layout;
    Alcotest.test_case "duplicate label rejected" `Quick test_duplicate_label_rejected;
    Alcotest.test_case "undefined label rejected" `Quick test_undefined_label_rejected;
    Alcotest.test_case "duplicate data rejected" `Quick test_duplicate_data_rejected;
    Alcotest.test_case "undefined entry rejected" `Quick test_undefined_entry_rejected;
    Alcotest.test_case "float word roundtrip" `Quick test_float_word_roundtrip;
    Alcotest.test_case "disassembly has labels" `Quick test_disassemble_contains_labels;
    Alcotest.test_case "cntinc before every branch" `Quick
      test_branch_count_inserts_before_every_branch;
    Alcotest.test_case "branch-count idempotent" `Quick test_branch_count_idempotent;
    Alcotest.test_case "label before cntinc" `Quick
      test_branch_count_label_stays_before_cntinc;
    Alcotest.test_case "reserved register enforced" `Quick
      test_reserved_register_enforced;
    Alcotest.test_case "reserved register scan" `Quick
      test_reserved_register_ok_without_pass;
    Alcotest.test_case "exclusives scan" `Quick test_exclusives_scan;
    Alcotest.test_case "rep scan" `Quick test_rep_scan;
    Alcotest.test_case "unresolved negative target" `Quick
      test_unresolved_negative_target;
    Alcotest.test_case "unresolved target at code length" `Quick
      test_unresolved_target_at_code_length;
    Alcotest.test_case "unresolved symbolic target" `Quick
      test_unresolved_symbolic_target;
    QCheck_alcotest.to_alcotest qcheck_branch_count_structure;
  ]
