open Riq_isa
open Riq_branch

(* ---- Bimod ---- *)

let test_bimod_saturation () =
  let b = Bimod.create 16 in
  let pc = 0x1000 in
  Alcotest.(check int) "init weakly not-taken" 1 (Bimod.counter b ~pc);
  Alcotest.(check bool) "predicts not-taken" false (Bimod.predict b ~pc);
  Bimod.update b ~pc ~taken:true;
  Alcotest.(check bool) "one taken flips" true (Bimod.predict b ~pc);
  Bimod.update b ~pc ~taken:true;
  Bimod.update b ~pc ~taken:true;
  Alcotest.(check int) "saturates at 3" 3 (Bimod.counter b ~pc);
  Bimod.update b ~pc ~taken:false;
  Alcotest.(check bool) "hysteresis" true (Bimod.predict b ~pc);
  Bimod.update b ~pc ~taken:false;
  Bimod.update b ~pc ~taken:false;
  Bimod.update b ~pc ~taken:false;
  Alcotest.(check int) "saturates at 0" 0 (Bimod.counter b ~pc)

let test_bimod_aliasing () =
  let b = Bimod.create 16 in
  (* PCs 16 entries apart share a counter (aliasing); adjacent ones don't. *)
  Bimod.update b ~pc:0 ~taken:true;
  Bimod.update b ~pc:0 ~taken:true;
  Alcotest.(check bool) "alias" true (Bimod.predict b ~pc:(16 * 4));
  Alcotest.(check bool) "neighbour" false (Bimod.predict b ~pc:4)

(* ---- Btb ---- *)

let test_btb_basic () =
  let b = Btb.create ~sets:4 ~ways:2 in
  Alcotest.(check (option int)) "cold" None (Btb.lookup b ~pc:0x100);
  Btb.update b ~pc:0x100 ~target:0x500;
  Alcotest.(check (option int)) "hit" (Some 0x500) (Btb.lookup b ~pc:0x100);
  Btb.update b ~pc:0x100 ~target:0x600;
  Alcotest.(check (option int)) "retarget" (Some 0x600) (Btb.lookup b ~pc:0x100)

let test_btb_eviction () =
  let b = Btb.create ~sets:1 ~ways:2 in
  Btb.update b ~pc:0x0 ~target:1;
  Btb.update b ~pc:0x4 ~target:2;
  ignore (Btb.lookup b ~pc:0x0); (* refresh *)
  Btb.update b ~pc:0x8 ~target:3; (* evicts 0x4 *)
  Alcotest.(check (option int)) "kept" (Some 1) (Btb.lookup b ~pc:0x0);
  Alcotest.(check (option int)) "evicted" None (Btb.lookup b ~pc:0x4);
  Alcotest.(check (option int)) "new" (Some 3) (Btb.lookup b ~pc:0x8)

(* Step-by-step differential check of the flat BTB against a
   record-per-entry reference model, including the fast-forward snapshot
   round trip: at random points the affine block is read, its clock and
   LRU stamps relocated by a constant (as a replay does), written back,
   and the model relocated alike — both must then keep agreeing on every
   target, hit count and victim. *)
type ref_entry = {
  mutable e_valid : bool;
  mutable e_tag : int;
  mutable e_target : int;
  mutable e_lru : int;
}

let test_btb_vs_record_model () =
  List.iter
    (fun (sets, ways) ->
      for seed = 0 to 4 do
        let rng = Random.State.make [| seed; sets; ways |] in
        let b = Btb.create ~sets ~ways in
        let tbl =
          Array.init (sets * ways) (fun _ ->
              { e_valid = false; e_tag = 0; e_target = 0; e_lru = 0 })
        in
        let clock = ref 0 and hits = ref 0 and version = ref 0 in
        let find pc =
          let idx = pc lsr 2 in
          let base = (idx land (sets - 1)) * ways and tag = idx / sets in
          let hit = ref None in
          for w = 0 to ways - 1 do
            let e = tbl.(base + w) in
            if e.e_valid && e.e_tag = tag then hit := Some e
          done;
          (base, tag, !hit)
        in
        let span = 4 * sets * ways in
        for step = 1 to 2000 do
          (* Word-aligned pcs around zero; [lsr] maps negative ones to
             large positive indices, as the hardware index would. *)
          let pc = 4 * (Random.State.int rng (2 * span) - span) in
          let name = Printf.sprintf "%dx%d seed %d step %d pc %d" sets ways seed step pc in
          incr clock;
          if Random.State.bool rng then begin
            let want =
              match find pc with
              | _, _, Some e ->
                  incr hits;
                  e.e_lru <- !clock;
                  e.e_target
              | _ -> -1
            in
            Alcotest.(check int) (name ^ ": lookup") want (Btb.lookup_target b ~pc)
          end
          else begin
            let target = 4 * Random.State.int rng 8 in
            (match find pc with
            | _, _, Some e ->
                if e.e_target <> target then incr version;
                e.e_target <- target;
                e.e_lru <- !clock
            | base, tag, None ->
                let v = ref tbl.(base) in
                for w = 1 to ways - 1 do
                  let e = tbl.(base + w) in
                  if (not e.e_valid) && !v.e_valid then v := e
                  else if e.e_valid && !v.e_valid && e.e_lru < !v.e_lru then v := e
                done;
                !v.e_valid <- true;
                !v.e_tag <- tag;
                !v.e_target <- target;
                !v.e_lru <- !clock;
                incr version);
            Btb.update b ~pc ~target
          end;
          Alcotest.(check int) (name ^ ": version") !version (Btb.version b);
          if step mod 97 = 0 then begin
            let pos = Random.State.int rng 5 in
            let n = Btb.ffwd_affine_len b in
            let a = Array.make (pos + n) 0 in
            Btb.ffwd_affine b a ~pos;
            Alcotest.(check int) (name ^ ": affine clock") !clock a.(pos);
            Alcotest.(check int) (name ^ ": affine hits") !hits a.(pos + 2);
            let shift = 1000 in
            a.(pos) <- a.(pos) + shift;
            for i = pos + 4 to pos + n - 1 do
              a.(i) <- a.(i) + shift
            done;
            Btb.ffwd_set_affine b a ~pos;
            let back = Array.make (pos + n) 0 in
            Btb.ffwd_affine b back ~pos;
            Alcotest.(check (array int)) (name ^ ": affine round trip") a back;
            clock := !clock + shift;
            Array.iter (fun e -> e.e_lru <- e.e_lru + shift) tbl
          end
        done;
        Alcotest.(check int) "hits" !hits (Btb.hits b)
      done)
    [ (1, 1); (1, 4); (2, 2); (4, 3); (16, 4) ]

(* ---- Ras ---- *)

let test_ras_stack () =
  let r = Ras.create 4 in
  Alcotest.(check (option int)) "empty pop" None (Ras.pop r);
  Ras.push r 10;
  Ras.push r 20;
  Alcotest.(check int) "depth" 2 (Ras.depth r);
  Alcotest.(check (option int)) "lifo" (Some 20) (Ras.pop r);
  Alcotest.(check (option int)) "lifo 2" (Some 10) (Ras.pop r)

let test_ras_overflow () =
  let r = Ras.create 2 in
  Ras.push r 1;
  Ras.push r 2;
  Ras.push r 3; (* overwrites oldest *)
  Alcotest.(check (option int)) "top" (Some 3) (Ras.pop r);
  Alcotest.(check (option int)) "second" (Some 2) (Ras.pop r);
  Alcotest.(check (option int)) "oldest gone" None (Ras.pop r)

let test_ras_checkpoint () =
  let r = Ras.create 4 in
  Ras.push r 10;
  let ck = Ras.checkpoint r in
  Ras.push r 20;
  ignore (Ras.pop r);
  ignore (Ras.pop r);
  Ras.restore r ck;
  Alcotest.(check (option int)) "restored top" (Some 10) (Ras.pop r)

(* ---- Gshare ---- *)

let test_gshare_learns_pattern () =
  let g = Gshare.create ~entries:256 ~history_bits:4 in
  let pc = 0x40 in
  (* alternating pattern T N T N: gshare separates by history. *)
  for _ = 1 to 40 do
    Gshare.update g ~pc ~taken:true;
    Gshare.update g ~pc ~taken:false
  done;
  let p1 = Gshare.predict g ~pc in
  Gshare.update g ~pc ~taken:p1;
  let p2 = Gshare.predict g ~pc in
  Alcotest.(check bool) "alternation learned" true (p1 <> p2)

(* ---- Predictor ---- *)

let test_predictor_branch_flow () =
  let p = Predictor.create Predictor.baseline in
  let pc = 0x1000 in
  let insn = Insn.Br (Beq, Reg.r 1, Reg.r 2, -4) in
  let d = Predictor.lookup p ~pc ~insn in
  Alcotest.(check bool) "cold not taken" false d.Predictor.taken;
  Predictor.resolve p ~pc ~insn ~taken:true ~target:0x0FF4;
  let d = Predictor.lookup p ~pc ~insn in
  Alcotest.(check bool) "trained taken" true d.Predictor.taken;
  Alcotest.(check (option int)) "static target" (Some 0x0FF4) d.Predictor.target

let test_predictor_call_return () =
  let p = Predictor.create Predictor.baseline in
  let d = Predictor.lookup p ~pc:0x2000 ~insn:(Insn.Jal 0x1000) in
  Alcotest.(check (option int)) "call target" (Some 0x4000) d.Predictor.target;
  let d = Predictor.lookup p ~pc:0x4010 ~insn:(Insn.Jr Reg.ra) in
  Alcotest.(check bool) "return uses RAS" true d.Predictor.used_ras;
  Alcotest.(check (option int)) "return target" (Some 0x2004) d.Predictor.target

let test_predictor_indirect () =
  let p = Predictor.create Predictor.baseline in
  let insn = Insn.Jr (Reg.r 5) in
  let d = Predictor.lookup p ~pc:0x3000 ~insn in
  Alcotest.(check (option int)) "unknown target" None d.Predictor.target;
  Predictor.resolve p ~pc:0x3000 ~insn ~taken:true ~target:0x8000;
  let d = Predictor.lookup p ~pc:0x3000 ~insn in
  Alcotest.(check (option int)) "btb learned" (Some 0x8000) d.Predictor.target

let test_predictor_checkpoint () =
  let p = Predictor.create Predictor.baseline in
  ignore (Predictor.lookup p ~pc:0x100 ~insn:(Insn.Jal 0x400));
  let ck = Predictor.checkpoint p in
  ignore (Predictor.lookup p ~pc:0x1010 ~insn:(Insn.Jr Reg.ra)); (* pops *)
  Predictor.restore p ck;
  let d = Predictor.lookup p ~pc:0x1010 ~insn:(Insn.Jr Reg.ra) in
  Alcotest.(check (option int)) "restored return" (Some 0x104) d.Predictor.target

let test_predictor_counts () =
  let p = Predictor.create Predictor.baseline in
  ignore (Predictor.lookup p ~pc:0 ~insn:(Insn.Br (Beq, 1, 2, 1)));
  ignore (Predictor.lookup p ~pc:4 ~insn:(Insn.Alu (Add, 1, 2, 3)));
  Alcotest.(check int) "non-ctrl free" 1 (Predictor.dir_lookups p);
  Predictor.resolve p ~pc:0 ~insn:(Insn.Br (Beq, 1, 2, 1)) ~taken:true ~target:8;
  Alcotest.(check int) "updates" 1 (Predictor.dir_updates p)

(* qcheck: bimod counter never leaves [0,3] *)
let prop_bimod_range =
  QCheck.Test.make ~name:"bimod counter stays in range" ~count:300
    QCheck.(list_of_size Gen.(int_range 1 100) bool)
    (fun updates ->
      let b = Bimod.create 4 in
      List.for_all
        (fun taken ->
          Bimod.update b ~pc:0 ~taken;
          let c = Bimod.counter b ~pc:0 in
          c >= 0 && c <= 3)
        updates)

(* qcheck: RAS behaves like a bounded stack that drops the bottom *)
let prop_ras_vs_model =
  QCheck.Test.make ~name:"RAS matches bounded-stack model" ~count:300
    QCheck.(list_of_size Gen.(int_range 1 60) (option (int_bound 1000)))
    (fun ops ->
      let r = Ras.create 4 in
      let model = ref [] in
      List.for_all
        (fun op ->
          match op with
          | Some v ->
              Ras.push r v;
              model := v :: List.filteri (fun i _ -> i < 3) !model;
              true
          | None -> (
              let got = Ras.pop r in
              match !model with
              | [] -> got = None
              | v :: rest ->
                  model := rest;
                  got = Some v))
        ops)

let suites =
  [
    ( "branch",
      [
        Alcotest.test_case "bimod saturation" `Quick test_bimod_saturation;
        Alcotest.test_case "bimod aliasing" `Quick test_bimod_aliasing;
        Alcotest.test_case "btb basic" `Quick test_btb_basic;
        Alcotest.test_case "btb eviction" `Quick test_btb_eviction;
        Alcotest.test_case "flat btb = record model, with ffwd round trip" `Quick
          test_btb_vs_record_model;
        Alcotest.test_case "ras stack" `Quick test_ras_stack;
        Alcotest.test_case "ras overflow" `Quick test_ras_overflow;
        Alcotest.test_case "ras checkpoint" `Quick test_ras_checkpoint;
        Alcotest.test_case "gshare pattern" `Quick test_gshare_learns_pattern;
        Alcotest.test_case "predictor branch flow" `Quick test_predictor_branch_flow;
        Alcotest.test_case "predictor call/return" `Quick test_predictor_call_return;
        Alcotest.test_case "predictor indirect" `Quick test_predictor_indirect;
        Alcotest.test_case "predictor checkpoint" `Quick test_predictor_checkpoint;
        Alcotest.test_case "predictor counters" `Quick test_predictor_counts;
        QCheck_alcotest.to_alcotest prop_bimod_range;
        QCheck_alcotest.to_alcotest prop_ras_vs_model;
      ] );
  ]
