type t = {
  mutable next_id : int;
  mutable next_label : int;
  mutable blocks : Ir.Block.t list;
}

let create () = { next_id = 1; next_label = 0; blocks = [] }

let label t stem =
  let l = Printf.sprintf "%s_%d" stem t.next_label in
  t.next_label <- t.next_label + 1;
  l

let instr t op =
  let id = t.next_id in
  t.next_id <- t.next_id + 1;
  Ir.Instr.make ~id op

let instrs t ops = List.map (instr t) ops

let add_block t lbl body terminator =
  t.blocks <- Ir.Block.make ~label:lbl ~body terminator :: t.blocks

let straight t lbl body ~next =
  add_block t lbl body (Ir.Block.Fallthrough next)

let loop_back t lbl body ~counter ~back_to ~exit_to ~iters =
  let dec =
    instr t (Ir.Instr.Binop (Ir.Instr.Sub, counter, Ir.Instr.Reg counter,
                             Ir.Instr.Imm 1))
  in
  (* the loop condition lives in guest register R31: optimizer
     temporaries are named by fresh instruction ids the optimizer hands
     out, so guest code never uses them *)
  let cond_reg = Ir.Reg.R 31 in
  let cmp =
    instr t
      (Ir.Instr.Cmp (Ir.Instr.Gt, cond_reg, Ir.Instr.Reg counter,
                     Ir.Instr.Imm 0))
  in
  let p = float_of_int (iters - 1) /. float_of_int iters in
  add_block t lbl
    (body @ [ dec; cmp ])
    (Ir.Block.Cond
       {
         cond = Ir.Instr.Reg cond_reg;
         taken = back_to;
         fallthrough = exit_to;
         taken_probability = p;
       })

let program t ~entry = Ir.Program.make ~entry (List.rev t.blocks)

let r n = Ir.Instr.Reg (Ir.Reg.R n)
let f n = Ir.Instr.Reg (Ir.Reg.F n)
let i n = Ir.Instr.Imm n
let addr base disp = { Ir.Instr.base; disp }
