open Riq_util
open Riq_isa
open Riq_interp

type value = Bot | Const of int | Range of int * int | Top

let min_i32 = -0x8000_0000
let max_i32 = 0x7fff_ffff
let norm lo hi = if lo = hi then Const lo else Range (lo, hi)

let bounds = function
  | Const c -> Some (c, c)
  | Range (lo, hi) -> Some (lo, hi)
  | Bot | Top -> None

let const = function Const c -> Some c | _ -> None

let join_value a b =
  match (a, b) with
  | Bot, v | v, Bot -> v
  | Top, _ | _, Top -> Top
  | _ -> (
      match (bounds a, bounds b) with
      | Some (l1, h1), Some (l2, h2) -> norm (min l1 l2) (max h1 h2)
      | _ -> Top)

(* Matched field by field (no [bounds] options) so the solver's
   pointwise [join] shortcut allocates nothing. *)
let leq_value a b =
  match (a, b) with
  | Bot, _ | _, Top -> true
  | _, Bot | Top, _ -> false
  | Const x, Const y -> x = y
  | Const x, Range (l2, h2) -> l2 <= x && x <= h2
  | Range (l1, h1), Const y -> y <= l1 && h1 <= y
  | Range (l1, h1), Range (l2, h2) -> l2 <= l1 && h1 <= h2

let equal_value a b =
  match (a, b) with
  | Bot, Bot | Top, Top -> true
  | Const x, Const y -> x = y
  | Range (l1, h1), Range (l2, h2) -> l1 = l2 && h1 = h2
  | (Bot | Top | Const _ | Range _), _ -> false

let widen_value old v = if leq_value v old then old else Top

let to_string = function
  | Bot -> "bot"
  | Top -> "top"
  | Const c -> string_of_int c
  | Range (lo, hi) -> Printf.sprintf "[%d..%d]" lo hi

(* ---- the fact: one value per logical register ---- *)

module L = struct
  type fact = value array

  let name = "value-range"
  let bottom = [||] (* distinguished: every register Bot *)
  let is_bottom f = Array.length f = 0
  let expand f = if is_bottom f then Array.make Reg.count Bot else f

  let equal a b =
    a == b || ((not (is_bottom a)) && (not (is_bottom b)) && Array.for_all2 equal_value a b)

  (* [a] pointwise below [b] means [join a b] is [b] itself: return it
     without allocating, which makes the solver's [leq] check
     ([equal (join a b) b]) a physical-equality hit. Facts are never
     mutated once built, so sharing the array is safe. *)
  let join a b =
    if a == b || is_bottom a then b
    else if is_bottom b then a
    else if Array.for_all2 leq_value a b then b
    else Array.init Reg.count (fun r -> join_value a.(r) b.(r))

  let widen a b =
    if is_bottom a then b
    else if is_bottom b then a
    else Array.init Reg.count (fun r -> widen_value a.(r) b.(r))
end

module Solver = Dataflow.Make (L)

(* ---- per-instruction abstract step ---- *)

let in32 lo hi = lo >= min_i32 && hi <= max_i32

let add_v a b =
  match (a, b) with
  | Bot, _ | _, Bot -> Bot
  | Const x, Const y -> Const (Bits.add32 x y)
  | _ -> (
      match (bounds a, bounds b) with
      | Some (l1, h1), Some (l2, h2) when in32 (l1 + l2) (h1 + h2) ->
          norm (l1 + l2) (h1 + h2)
      | _ -> Top)

let sub_v a b =
  match (a, b) with
  | Bot, _ | _, Bot -> Bot
  | Const x, Const y -> Const (Bits.sub32 x y)
  | _ -> (
      match (bounds a, bounds b) with
      | Some (l1, h1), Some (l2, h2) when in32 (l1 - h2) (h1 - l2) ->
          norm (l1 - h2) (h1 - l2)
      | _ -> Top)

let alu_v op a b =
  match (a, b) with
  | Bot, _ | _, Bot -> Bot
  | Const x, Const y -> Const (Semantics.alu op x y)
  | _ -> (
      match op with
      | Insn.Add -> add_v a b
      | Sub -> sub_v a b
      | Slt -> (
          (* signed compare decided by disjoint intervals *)
          match (bounds a, bounds b) with
          | Some (_, h1), Some (l2, _) when h1 < l2 -> Const 1
          | Some (l1, _), Some (_, h2) when l1 >= h2 -> Const 0
          | _ -> Range (0, 1))
      | Sltu -> Range (0, 1)
      | And -> (
          match (bounds a, bounds b) with
          | Some (l1, h1), Some (l2, h2) when l1 >= 0 && l2 >= 0 ->
              norm 0 (min h1 h2)
          | _ -> Top)
      | Or | Xor | Nor -> Top)

let shift_v op v sh =
  match v with
  | Bot -> Bot
  | Const x -> Const (Semantics.shift op x sh)
  | _ -> (
      let sh = sh land 31 in
      match (op, bounds v) with
      | Insn.Sll, Some (lo, hi)
        when lo >= 0 && in32 (lo lsl sh) (hi lsl sh) ->
          norm (lo lsl sh) (hi lsl sh)
      | Insn.Sra, Some (lo, hi) -> norm (lo asr sh) (hi asr sh)
      | Insn.Srl, Some (lo, hi) when lo >= 0 -> norm (lo asr sh) (hi asr sh)
      | _ -> Top)

let load_v insn =
  match insn with
  | Insn.Lb _ -> Range (-128, 127)
  | Lbu _ -> Range (0, 255)
  | Lh _ -> Range (-32768, 32767)
  | Lhu _ -> Range (0, 65535)
  | _ -> Top

(* [fact] is a fresh (expanded) array the caller owns; mutated in place. *)
let step fact insn =
  let get r = if r = Reg.zero then Const 0 else fact.(r) in
  let set r v = if r <> Reg.zero then fact.(r) <- v in
  let havoc () =
    for r = 1 to Reg.count - 1 do
      fact.(r) <- Top
    done
  in
  match insn with
  | Insn.Alu (op, rd, rs, rt) -> set rd (alu_v op (get rs) (get rt))
  | Alui (op, rt, rs, imm) ->
      set rt (alu_v op (get rs) (Const (Semantics.alui_imm op imm)))
  | Shift (op, rd, rt, sh) -> set rd (shift_v op (get rt) sh)
  | Shiftv (_, rd, _, _) -> set rd Top
  | Lui (rt, imm) -> set rt (Const (Bits.of_i32 (imm lsl 16)))
  | Mul (rd, rs, rt) -> (
      match (get rs, get rt) with
      | Bot, _ | _, Bot -> set rd Bot
      | Const x, Const y -> set rd (Const (Semantics.mul x y))
      | _ -> set rd Top)
  | Div (rd, rs, rt) -> (
      match (get rs, get rt) with
      | Bot, _ | _, Bot -> set rd Bot
      | Const x, Const y -> set rd (Const (Semantics.div x y))
      | _ -> set rd Top)
  | Fcmp (_, rd, _, _) -> set rd (Range (0, 1))
  | Cvtws (rd, _) -> set rd Top
  | Fpu (_, fd, _, _) -> set fd Top
  | Cvtsw (fd, _) -> set fd Top
  | Lwf (ft, _, _) -> set ft Top
  | (Lw (rt, _, _) | Lb (rt, _, _) | Lbu (rt, _, _) | Lh (rt, _, _) | Lhu (rt, _, _)) as l ->
      set rt (load_v l)
  | Jal _ | Jalr _ -> havoc ()
  | Sw _ | Sb _ | Sh _ | Swf _ | Br _ | J _ | Jr _ | Nop | Halt -> ()

(* ---- analysis ---- *)

type t = {
  cfg : Cfg.t;
  tainted : bool;
  boundary : value array;
  input : value array array; (* block id -> fact at block entry *)
  output : value array array; (* block id -> fact at block exit *)
}

let machine_entry_fact () =
  (* Both simulators zero the integer file; the harness may point sp at a
     stack and fp registers hold floats, so those stay unknown. *)
  Array.init Reg.count (fun r ->
      if r = Reg.zero then Const 0
      else if r = Reg.sp || Reg.is_fp r then Top
      else Const 0)

let has_unresolved_indirect cfg =
  Array.exists
    (fun b ->
      match Cfg.last_insn cfg b with
      | Insn.Jalr _ -> true
      | last -> b.Cfg.b_indirect && Insn.kind last = Insn.K_ijump)
    cfg.Cfg.blocks

let analyze cfg =
  let tainted = has_unresolved_indirect cfg in
  let boundary = machine_entry_fact () in
  let transfer node fact =
    let fact = Array.copy (L.expand fact) in
    List.iter (fun (_, insn) -> step fact insn) (Cfg.insns cfg cfg.Cfg.blocks.(node));
    fact
  in
  let r = Solver.solve_cfg ~boundary ~transfer cfg in
  {
    cfg;
    tainted;
    boundary;
    input = Array.map L.expand r.Solver.input;
    output = Array.map L.expand r.Solver.output;
  }

let tainted t = t.tainted
let facts t = (t.input, t.output)

let value_at t ~pc reg =
  if t.tainted then Top
  else if reg = Reg.zero then Const 0
  else
    match Cfg.block_at t.cfg pc with
    | None -> Top
    | Some b ->
        let fact = Array.copy t.input.(b.Cfg.b_id) in
        List.iter
          (fun (p, insn) -> if p < pc then step fact insn)
          (Cfg.insns t.cfg b);
        fact.(reg)

let value_into t ~block ~from reg =
  if t.tainted then Top
  else if reg = Reg.zero then Const 0
  else
    let init = if block = t.cfg.Cfg.entry then t.boundary.(reg) else Bot in
    List.fold_left (fun acc p -> join_value acc t.output.(p).(reg)) init from
