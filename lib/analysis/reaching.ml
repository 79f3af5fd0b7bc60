open Riq_isa
module IS = Set.Make (Int)

let entry_pc = -1

(* Definition sites are numbered densely: ids [0..63] are the initial-state
   pseudo-defs (one per register), higher ids are instructions with a
   destination, in address order. *)
type t = {
  cfg : Cfg.t;
  def_pc : int array; (* def id -> pc *)
  def_reg : int array; (* def id -> register *)
  kill : IS.t array; (* register -> all def ids of that register *)
  def_at : (int, int) Hashtbl.t; (* pc -> def id *)
  input : IS.t array; (* block id -> defs reaching block entry *)
}

module L = struct
  type fact = IS.t

  let name = "reaching-defs"
  let bottom = IS.empty
  let equal a b = a == b || IS.equal a b

  (* A subset joins to the superset itself: no new tree, and the
     solver's [leq] check ([equal (join a b) b]) hits [==]. *)
  let join a b = if IS.subset a b then b else IS.union a b
  let widen = IS.union
end

module Solver = Dataflow.Make (L)

let analyze cfg =
  let defs = ref [] and n = ref Reg.count in
  let def_at = Hashtbl.create 64 in
  Array.iter
    (fun b ->
      List.iter
        (fun (pc, insn) ->
          match Insn.dest insn with
          | Some r ->
              Hashtbl.replace def_at pc !n;
              defs := (pc, r) :: !defs;
              incr n
          | None -> ())
        (Cfg.insns cfg b))
    cfg.Cfg.blocks;
  let def_pc = Array.make !n entry_pc and def_reg = Array.make !n 0 in
  for r = 0 to Reg.count - 1 do
    def_reg.(r) <- r
  done;
  List.iter
    (fun (pc, r) ->
      let id = Hashtbl.find def_at pc in
      def_pc.(id) <- pc;
      def_reg.(id) <- r)
    !defs;
  let kill = Array.make Reg.count IS.empty in
  for id = 0 to !n - 1 do
    kill.(def_reg.(id)) <- IS.add id kill.(def_reg.(id))
  done;
  let transfer node fact =
    List.fold_left
      (fun fact (pc, insn) ->
        match Insn.dest insn with
        | Some r ->
            IS.add (Hashtbl.find def_at pc) (IS.diff fact kill.(r))
        | None -> fact)
      fact
      (Cfg.insns cfg cfg.Cfg.blocks.(node))
  in
  (* Boundary: at program entry every register holds its initial value. *)
  let boundary = IS.of_list (List.init Reg.count Fun.id) in
  let r = Solver.solve_cfg ~boundary ~transfer cfg in
  { cfg; def_pc; def_reg; kill; def_at; input = r.Solver.input }

let fact_at t ~pc =
  match Cfg.block_at t.cfg pc with
  | None -> None
  | Some b ->
      let fact = ref t.input.(b.Cfg.b_id) in
      List.iter
        (fun (p, insn) ->
          if p < pc then
            match Insn.dest insn with
            | Some r ->
                fact :=
                  IS.add (Hashtbl.find t.def_at p) (IS.diff !fact t.kill.(r))
            | None -> ())
        (Cfg.insns t.cfg b);
      Some !fact

let defs_of t ~pc reg =
  match fact_at t ~pc with
  | None -> []
  | Some fact ->
      IS.fold
        (fun id acc ->
          if t.def_reg.(id) = reg then t.def_pc.(id) :: acc else acc)
        fact []
      |> List.sort compare

let invariant_in t ~head ~tail reg =
  List.for_all (fun pc -> pc < head || pc > tail) (defs_of t ~pc:head reg)
