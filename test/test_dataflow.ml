(* Tests for the generic dataflow framework and its clients (reaching
   definitions, value ranges, store-load alias analysis), plus the
   soundness properties the ISSUE pins down:

   - solver properties on random CFGs from the fuzz generator: the
     fixpoint is stable (re-solving changes nothing) and a Backward
     solve equals a Forward solve of the reversed graph;
   - a non-monotone transfer function is detected, not silently
     "solved";
   - on every built-in kernel, the statically predicted revoke cause
     matches the dominant cause the core actually counted (on loops
     whose prediction is not Marginal), and no no-alias claim is
     contradicted by the addresses the reference interpreter observes. *)

open Riq_asm
open Riq_isa
open Riq_core
open Riq_workloads
open Riq_analysis

let parse = Parse.program_exn
let cfg_of src = Cfg.build (parse src)

(* ---- solver properties on random CFGs ---- *)

module IS = Set.Make (Int)

module L = struct
  type fact = IS.t

  let name = "reach-set"
  let bottom = IS.empty
  let equal = IS.equal
  let join = IS.union
  let widen = IS.union
end

module Solver = Dataflow.Make (L)

let transfer n input = IS.add n input

let random_graphs =
  lazy
    (List.filter_map
       (fun i ->
         let prog = Riq_fuzz.Gen.program ~seed:(Riq_fuzz.Gen.derive_seed 99 i) () in
         match Riq_fuzz.Prog.to_program prog with
         | Ok p -> Some (Dataflow.of_cfg (Cfg.build p))
         | Error _ -> None)
       (List.init 20 Fun.id))

let test_fixpoint_stable () =
  List.iteri
    (fun i g ->
      let r = Solver.solve ~transfer g in
      Alcotest.(check bool)
        (Printf.sprintf "forward fixpoint stable (graph %d)" i)
        true
        (Solver.stable ~transfer g r);
      let rb = Solver.solve ~direction:Dataflow.Backward ~transfer g in
      Alcotest.(check bool)
        (Printf.sprintf "backward fixpoint stable (graph %d)" i)
        true
        (Solver.stable ~direction:Dataflow.Backward ~transfer g rb))
    (Lazy.force random_graphs)

let test_direction_symmetry () =
  List.iteri
    (fun i g ->
      let bwd = Solver.solve ~direction:Dataflow.Backward ~transfer g in
      let fwd_rev = Solver.solve ~transfer (Dataflow.reverse g) in
      Array.iteri
        (fun n f ->
          Alcotest.(check bool)
            (Printf.sprintf "input facts agree (graph %d, node %d)" i n)
            true
            (IS.equal f fwd_rev.Solver.input.(n)))
        bwd.Solver.input;
      Array.iteri
        (fun n f ->
          Alcotest.(check bool)
            (Printf.sprintf "output facts agree (graph %d, node %d)" i n)
            true
            (IS.equal f fwd_rev.Solver.output.(n)))
        bwd.Solver.output)
    (Lazy.force random_graphs)

let test_non_monotone_detected () =
  (* Entry feeds a self-loop whose transfer erases the very mark it adds:
     the second visit computes an output strictly below the first, which
     must raise, not converge by accident of visit order. *)
  let g =
    {
      Dataflow.g_nodes = 2;
      g_entry = 0;
      g_succs = [| [ 1 ]; [ 1 ] |];
      g_preds = [| []; [ 0; 1 ] |];
      g_order = [| 0; 1 |];
    }
  in
  let shrinking n input =
    if n = 1 then (if IS.mem 99 input then IS.empty else IS.singleton 99)
    else input
  in
  Alcotest.check_raises "non-monotone transfer raises"
    (Dataflow.Non_monotone { lattice = "reach-set"; node = 1 })
    (fun () -> ignore (Solver.solve ~transfer:shrinking g))

(* ---- value-range propagation ---- *)

let pc_of p label = Option.get (Program.address_of p label)

let test_valrange_constants () =
  let src =
    {|
start:
    addi r2, r0, 10
    addi r3, r2, 5
    sll  r4, r3, 2
q:
    halt
|}
  in
  let p = parse src in
  let v = Valrange.analyze (Cfg.build p) in
  let at label r = Valrange.value_at v ~pc:(pc_of p label) (Reg.r r) in
  Alcotest.(check bool) "not tainted" false (Valrange.tainted v);
  Alcotest.(check (option int)) "r3 = 15" (Some 15) (Valrange.const (at "q" 3));
  Alcotest.(check (option int)) "r4 = 60" (Some 60) (Valrange.const (at "q" 4))

let test_valrange_join_and_call () =
  let src =
    {|
start:
    addi r2, r0, 7
    beq  r2, r0, else_
    addi r3, r0, 1
    j    join
else_:
    addi r3, r0, 2
join:
    add  r4, r3, r0
    jal  proc
after:
    halt
proc:
    addi r5, r0, 3
    jr   r31
|}
  in
  let p = parse src in
  let v = Valrange.analyze (Cfg.build p) in
  Alcotest.(check bool) "not tainted" false (Valrange.tainted v);
  (match Valrange.value_at v ~pc:(pc_of p "join") (Reg.r 3) with
  | Valrange.Range (1, 2) -> ()
  | other -> Alcotest.failf "r3 at join: expected [1,2], got %s" (Valrange.to_string other));
  (* The call havocs everything: the constant r2 held before [jal] is
     gone at the return point. *)
  (match Valrange.value_at v ~pc:(pc_of p "after") (Reg.r 2) with
  | Valrange.Top -> ()
  | other -> Alcotest.failf "r2 after call: expected Top, got %s" (Valrange.to_string other))

let test_valrange_tainted_by_jalr () =
  let src =
    {|
start:
    addi r2, r0, 5
    la   r8, start
    jalr r31, r8
q:
    halt
|}
  in
  let p = parse src in
  let v = Valrange.analyze (Cfg.build p) in
  Alcotest.(check bool) "tainted" true (Valrange.tainted v);
  (match Valrange.value_at v ~pc:(pc_of p "q") (Reg.r 2) with
  | Valrange.Top -> ()
  | other -> Alcotest.failf "tainted query: expected Top, got %s" (Valrange.to_string other))

(* ---- reaching definitions ---- *)

let test_reaching_defs () =
  let src =
    {|
start:
    addi r2, r0, 1
    addi r2, r2, 1
q:
    halt
|}
  in
  let p = parse src in
  let r = Reaching.analyze (Cfg.build p) in
  Alcotest.(check (list int)) "second def shadows the first"
    [ pc_of p "start" + 4 ]
    (Reaching.defs_of r ~pc:(pc_of p "q") (Reg.r 2));
  Alcotest.(check (list int)) "unwritten register keeps its initial def"
    [ Reaching.entry_pc ]
    (Reaching.defs_of r ~pc:(pc_of p "q") (Reg.r 9))

(* ---- alias analysis, through the bufferability report ---- *)

let loop_report src =
  let report = Bufferability.analyze ~iq_size:32 (parse src) in
  match report.Bufferability.loops with
  | [ l ] -> (report, l)
  | ls -> Alcotest.failf "expected one loop, got %d" (List.length ls)

let disjoint_src =
  (* Pointer-bump idiom: both bases are inductions with constant entry
     values and an exact trip count, so the analysis lowers each to the
     concrete interval it sweeps — provably disjoint arrays. *)
  {|
.space a 64
.space b 64
start:
    la   r8, a
    la   r9, b
    addi r16, r0, 16
loop:
    lw   r5, 0(r9)
    sw   r5, 0(r8)
    addi r8, r8, 4
    addi r9, r9, 4
    addi r16, r16, -1
    bgtz r16, loop
    halt
|}

let test_alias_disjoint_arrays () =
  let _, l = loop_report disjoint_src in
  Alcotest.(check bool) "no-alias claim exported" true (l.Bufferability.no_alias <> []);
  Alcotest.(check bool) "no aliasing-store risk" true
    (not
       (List.exists
          (function Bufferability.Aliasing_store _ -> true | _ -> false)
          l.Bufferability.risks))

let test_alias_same_address_flagged () =
  let src =
    {|
.space a 64
start:
    la   r8, a
    addi r16, r0, 0
loop:
    lw   r5, 0(r8)
    addi r5, r5, 1
    sw   r5, 0(r8)
    addi r16, r16, 1
    slti r2, r16, 16
    bne  r2, r0, loop
    halt
|}
  in
  let _, l = loop_report src in
  Alcotest.(check bool) "aliasing store flagged" true
    (List.exists
       (function Bufferability.Aliasing_store _ -> true | _ -> false)
       l.Bufferability.risks)

let test_alias_claims_validated () =
  let p = parse disjoint_src in
  let report = Bufferability.analyze ~iq_size:32 p in
  match Bufferability.validate_no_alias p report with
  | Ok n -> Alcotest.(check bool) "claims checked" true (n > 0)
  | Error msg -> Alcotest.failf "claim contradicted: %s" msg

(* ---- unreachable code ---- *)

let test_unreachable_reported () =
  let src =
    {|
start:
    addi r2, r0, 1
    j    out
dead:
    addi r3, r0, 2
    addi r3, r3, 1
out:
    halt
|}
  in
  let p = parse src in
  let report = Bufferability.analyze ~iq_size:32 p in
  match report.Bufferability.unreachable with
  | [ (first, last) ] ->
      Alcotest.(check int) "range starts at dead" (pc_of p "dead") first;
      Alcotest.(check int) "range spans both insns" (pc_of p "dead" + 4) last
  | other -> Alcotest.failf "expected one unreachable range, got %d" (List.length other)

(* ---- kernels: predicted vs measured revoke causes, claims validated ---- *)

let dominant_cause (d : Processor.loop_decision) =
  List.fold_left
    (fun acc (c, n) ->
      match acc with Some (_, m) when m >= n -> acc | _ -> if n > 0 then Some (c, n) else acc)
    None
    [
      (Bufferability.Rv_inner_loop, d.Processor.ld_rv_inner);
      (Bufferability.Rv_left_loop, d.Processor.ld_rv_left);
      (Bufferability.Rv_overflow, d.Processor.ld_rv_overflow);
      (Bufferability.Rv_mispredict, d.Processor.ld_rv_mispredict);
    ]

let test_kernel_revoke_causes () =
  List.iter
    (fun w ->
      let program = Workloads.program w in
      let cfg = Riq_ooo.Config.with_iq_size Riq_ooo.Config.reuse 32 in
      let report = Bufferability.analyze_config cfg program in
      (match Bufferability.validate_no_alias program report with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "%s: no-alias claim contradicted: %s" w.Workloads.name msg);
      let p = Processor.create cfg program in
      (match Processor.run p with
      | Processor.Halted -> ()
      | Processor.Cycle_limit -> Alcotest.failf "%s: cycle limit" w.Workloads.name);
      List.iter
        (fun (d : Processor.loop_decision) ->
          match
            List.find_opt
              (fun l -> l.Bufferability.tail = d.Processor.ld_tail)
              report.Bufferability.loops
          with
          | None -> ()
          | Some l -> (
              match (l.Bufferability.predicted_cause, dominant_cause d) with
              | Some c, Some (dc, _) when l.Bufferability.prediction <> Bufferability.Marginal
                ->
                  Alcotest.(check string)
                    (Printf.sprintf "%s loop %08x: predicted cause" w.Workloads.name
                       d.Processor.ld_tail)
                    (Bufferability.cause_to_string c)
                    (Bufferability.cause_to_string dc)
              | _ -> ()))
        (Processor.loop_decisions p))
    Workloads.all

(* ---- the fast lattice operations agree with their definitions ---- *)

(* Seeded random value-range facts. Small bounds make pointwise order
   common, so the [join] shortcut (returning its right operand) is taken
   as often as the allocating path. Ranges are never degenerate, as
   [Valrange] builds them. *)
let random_value rng =
  match Random.State.int rng 5 with
  | 0 -> Valrange.Bot
  | 1 -> Valrange.Top
  | 2 -> Valrange.Const (Random.State.int rng 7 - 3)
  | _ ->
      let lo = Random.State.int rng 7 - 3 in
      Valrange.Range (lo, lo + 1 + Random.State.int rng 4)

let random_fact rng =
  if Random.State.int rng 8 = 0 then Valrange.L.bottom
  else Array.init Reg.count (fun _ -> random_value rng)

let expand f = if Array.length f = 0 then Array.make Reg.count Valrange.Bot else f

let test_valrange_lattice_pointwise () =
  let rng = Random.State.make [| 2004 |] in
  let shortcuts = ref 0 in
  for i = 1 to 5000 do
    let a = random_fact rng in
    (* Half the time, [b] is built above [a] so the shortcut applies. *)
    let b =
      if Random.State.bool rng then
        Array.map (fun v -> Valrange.join_value v (random_value rng)) (expand a)
      else random_fact rng
    in
    let a0 = Array.copy a and b0 = Array.copy b in
    let j = Valrange.L.join a b in
    let name = Printf.sprintf "pair %d" i in
    let want = Array.map2 Valrange.join_value (expand a) (expand b) in
    if expand j <> want then Alcotest.failf "%s: join differs from the pointwise join" name;
    if j == b then incr shortcuts;
    if a <> a0 || b <> b0 then Alcotest.failf "%s: join mutated an operand" name;
    let pointwise_equal x y =
      (Array.length x = 0) = (Array.length y = 0) && expand x = expand y
    in
    Alcotest.(check bool) (name ^ ": equal a b") (pointwise_equal a b) (Valrange.L.equal a b);
    Alcotest.(check bool) (name ^ ": equal j want") true (Valrange.L.equal (expand j) want);
    let c = Array.copy (expand b) in
    Alcotest.(check bool) (name ^ ": equal to a copy") true (Valrange.L.equal (expand b) c);
    (* Near misses: one register changed. *)
    c.(Random.State.int rng Reg.count) <- random_value rng;
    Alcotest.(check bool)
      (name ^ ": equal to a near copy")
      (expand b = c)
      (Valrange.L.equal (expand b) c)
  done;
  Alcotest.(check bool) "join shortcut taken" true (!shortcuts > 1000)

let test_reaching_lattice_pointwise () =
  let rng = Random.State.make [| 2005 |] in
  let set () =
    Reaching.IS.of_list (List.init (Random.State.int rng 12) (fun _ -> Random.State.int rng 16))
  in
  for i = 1 to 5000 do
    let a = set () in
    let b = if Random.State.bool rng then Reaching.IS.union a (set ()) else set () in
    let j = Reaching.L.join a b in
    let name = Printf.sprintf "pair %d" i in
    Alcotest.(check (list int))
      (name ^ ": join is union")
      (Reaching.IS.elements (Reaching.IS.union a b))
      (Reaching.IS.elements j);
    if Reaching.IS.subset a b && j != b then
      Alcotest.failf "%s: subset join must return its right operand" name;
    Alcotest.(check bool)
      (name ^ ": equal")
      (Reaching.IS.elements a = Reaching.IS.elements b)
      (Reaching.L.equal a b)
  done

(* Joins now share arrays between blocks, so a client that mutated a
   fact in place would corrupt other blocks' facts. Solve, snapshot every
   fact, exercise every query, and require the facts unchanged — and
   require some sharing, so the check is not vacuous. *)
let test_valrange_facts_not_mutated () =
  let shared = ref 0 in
  let programs =
    List.map Workloads.program Workloads.all
    @ List.filter_map
        (fun i ->
          match
            Riq_fuzz.Prog.to_program
              (Riq_fuzz.Gen.program ~seed:(Riq_fuzz.Gen.derive_seed 99 i) ())
          with
          | Ok p -> Some p
          | Error _ -> None)
        (List.init 20 Fun.id)
  in
  List.iteri
    (fun k p ->
      let cfg = Cfg.build p in
      let v = Valrange.analyze cfg in
      let input, output = Valrange.facts v in
      let all = Array.append input output in
      Array.iteri
        (fun i f -> Array.iteri (fun j g -> if i < j && f == g then incr shared) all)
        all;
      let before = Array.map Array.copy all in
      Array.iter
        (fun b ->
          List.iter
            (fun (pc, _) ->
              for r = 0 to Reg.count - 1 do
                ignore (Valrange.value_at v ~pc r)
              done)
            (Cfg.insns cfg b);
          for r = 0 to Reg.count - 1 do
            ignore (Valrange.value_into v ~block:b.Cfg.b_id ~from:b.Cfg.b_preds r)
          done)
        cfg.Cfg.blocks;
      ignore (Bufferability.analyze ~iq_size:64 p);
      Array.iteri
        (fun i f ->
          if f <> before.(i) then
            Alcotest.failf "program %d: fact %d mutated by a query" k i)
        all)
    programs;
  Alcotest.(check bool) "solved facts share arrays" true (!shared > 0)

let suites =
  [
    ( "dataflow.solver",
      [
        Alcotest.test_case "fixpoint stable on random CFGs" `Quick test_fixpoint_stable;
        Alcotest.test_case "backward = forward on reversed graph" `Quick
          test_direction_symmetry;
        Alcotest.test_case "non-monotone transfer detected" `Quick
          test_non_monotone_detected;
      ] );
    ( "dataflow.valrange",
      [
        Alcotest.test_case "constants fold" `Quick test_valrange_constants;
        Alcotest.test_case "join and call havoc" `Quick test_valrange_join_and_call;
        Alcotest.test_case "jalr taints" `Quick test_valrange_tainted_by_jalr;
      ] );
    ( "dataflow.reaching",
      [ Alcotest.test_case "kills and initial defs" `Quick test_reaching_defs ] );
    ( "dataflow.lattice",
      [
        Alcotest.test_case "value-range join/equal = pointwise" `Quick
          test_valrange_lattice_pointwise;
        Alcotest.test_case "reaching join/equal = set union/equality" `Quick
          test_reaching_lattice_pointwise;
        Alcotest.test_case "no client mutates a shared fact" `Quick
          test_valrange_facts_not_mutated;
      ] );
    ( "dataflow.alias",
      [
        Alcotest.test_case "disjoint arrays proven" `Quick test_alias_disjoint_arrays;
        Alcotest.test_case "same-address store flagged" `Quick
          test_alias_same_address_flagged;
        Alcotest.test_case "claims validated dynamically" `Quick
          test_alias_claims_validated;
      ] );
    ( "dataflow.unreachable",
      [ Alcotest.test_case "dead block reported" `Quick test_unreachable_reported ] );
    ( "dataflow.kernels",
      [
        Alcotest.test_case "revoke causes and claims on all kernels" `Quick
          test_kernel_revoke_causes;
      ] );
  ]
