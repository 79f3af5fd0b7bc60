(* fuzz-campaign: seeded generated programs, each through the four-leg
   Oracle.check under Driver.config "default", in one process and one
   thread. Every round runs the same programs, and each program counts
   with its fastest time over the rounds; a round's set-up generates and
   assembles the programs up front, as Riq_fuzz.Driver.run does. *)

open Riq_util
open Riq_core
open Riq_fuzz
open Common

let table = "fuzz-campaign"
(* 1000 programs make the tail latency a p99. Two rounds of them take
   about 30 s on a 2-core host. *)
let n_programs = 1000
let n_rounds = 2
let cycle_limit = 10_000_000

type leg = { stats : Processor.stats; power : power; decisions : Processor.loop_decision list }

(* Legs of the program under check, most recent first. *)
let legs : leg list ref = ref []

(* The oracle's out-of-order runner: Oracle.default_runner's steps, with
   Processor.create and Processor.run timed and every leg's results kept
   for the digest. *)
let runner : Oracle.runner =
 fun cfg program ->
  match
    let p = core_create cfg program in
    match core_run ~cycle_limit p with
    | Processor.Cycle_limit -> Error (Printf.sprintf "cycle limit exceeded (%d cycles)" cycle_limit)
    | Processor.Halted ->
        let stats = Processor.stats p and decisions = Processor.loop_decisions p in
        legs := { stats; power = power_of_account (Processor.account p); decisions } :: !legs;
        Ok { Oracle.arch = Processor.arch_state p; stats; decisions }
  with
  | r -> r
  | exception exn -> Error ("exception: " ^ Printexc.to_string exn)

(* Digest of one program's oracle verdict: every leg's stats, power groups
   and per-loop decisions, in leg order. *)
let digest_of verdict legs =
  match verdict with
  | Error f -> error_token (Oracle.failure_to_string f)
  | Ok (_ : Oracle.summary) ->
      short_hex
        (String.concat "|"
           (List.map
              (fun l ->
                String.concat "/"
                  (stats_canon l.stats :: power_canon l.power
                  :: List.map decision_canon l.decisions))
              legs))

(* Check one program: the verdict, its digest, and its legs in order. *)
let check_one program =
  legs := [];
  let verdict = Oracle.check ~runner ~cfg:Programs.cfg program in
  let l = List.rev !legs in
  (digest_of verdict l, l)

let generate indices =
  Array.map (fun j -> Spans.with_ ~op:j "fuzz.gen" (fun () -> Programs.program j)) indices

let run ~work:_ ~seed ~trace =
  let tbl = load_table table in
  let n = n_programs in
  let all = Programs.sample ~seed n in
  let setup indices = time_setup ~rounds:n_rounds (fun () -> generate indices) in
  let c = counts () in
  let errors = ref [] in
  (* One pass over some of the programs: per-program digests and seconds,
     the pass's wall time and the instructions its legs committed. With
     [count], the legs' stats also go into [c]. *)
  let pass ~count indices programs =
    let k = Array.length programs in
    let digests = Array.make k "" and secs = Array.make k 0. and insns = ref 0 in
    let t0 = now () in
    Array.iteri
      (fun i program ->
        let t = now () in
        let d, l =
          Spans.with_ ~op:indices.(i) "bench.op" (fun () ->
              let r = Spans.with_ "fuzz.oracle" (fun () -> check_one program) in
              if !Spans.enabled then begin
                (* The oracle's reference and analysis calls, made once
                   more from here so each is timed on its own, and taken
                   out of the oracle's self time. *)
                let oracle = Spans.last () in
                Spans.with_ ~deduct_from:oracle "interp.run" (fun () ->
                    ignore (Riq_interp.Machine.run (Riq_interp.Machine.create program)));
                Spans.with_ ~deduct_from:oracle "analysis.verdicts" (fun () ->
                    ignore (Riq_analysis.Bufferability.analyze_config Programs.cfg program))
              end;
              r)
        in
        secs.(i) <- now () -. t;
        digests.(i) <- d;
        List.iter
          (fun l ->
            insns := !insns + l.stats.Processor.committed;
            if count then add_stats c l.stats)
          l)
      programs;
    (digests, secs, now () -. t0, !insns)
  in
  let checked indices digests =
    let chk =
      check_against tbl
        (Array.to_list
           (Array.mapi
              (fun i d ->
                let j = indices.(i) in
                (Printf.sprintf "program %d (pool index %d)" i j, string_of_int j, d))
              digests))
    in
    errors := !errors @ chk.errors;
    chk
  in
  if not trace then begin
    let first = ref None in
    let fastest = Array.make n infinity in
    let rounds =
      List.init n_rounds (fun k ->
          let programs, setup = setup all in
          let ds, op_seconds, wall, insns = pass ~count:(k = 0) all programs in
          let chk = checked all ds in
          if k = 0 then first := Some chk;
          Array.iteri (fun i t -> fastest.(i) <- Float.min fastest.(i) t) op_seconds;
          { setup; wall; op_seconds; insns })
    in
    let chk = Option.get !first in
    (* One thread checks the programs back to back, so a pass's wall time
       is the sum of its programs' times; the pass without the host's
       noise is the sum of their fastest. *)
    let wall = Array.fold_left ( +. ) 0. fastest in
    let metrics, info = e2e ~op_seconds:fastest ~wall ~ops:n rounds in
    {
      attempted = n * n_rounds;
      failed = List.length !errors;
      errors = truncate_errors !errors;
      metrics;
      info =
        info
        @ [
            ("config", Json.String Programs.config_name);
            Programs.excluded_info;
            ("legs", Json.Int c.sims);
            ("digest", Json.String chk.digest);
            ("expected_digest", Json.String chk.expected);
          ];
    }
  end
  else begin
    (* Each half of the programs runs untraced and traced, in alternating
       order, so that host drift and warm-up cancel in the tracing
       overhead; per-layer numbers come from the traced passes. *)
    Spans.reset ();
    let walls =
      List.init 2 (fun k ->
          let indices = Array.sub all (k * n / 2) (n / 2) in
          let programs, _ = setup indices in
          let untraced () =
            let _, _, wall, _ = pass ~count:false indices programs in
            wall
          in
          let traced () =
            Spans.enabled := true;
            ignore (generate indices);
            let ds, _, wall, _ = pass ~count:true indices programs in
            Spans.enabled := false;
            ignore (checked indices ds);
            wall
          in
          if k mod 2 = 0 then
            let u = untraced () in
            (u, traced ())
          else
            let t = traced () in
            (untraced (), t))
    in
    let untraced = List.fold_left (fun a (u, _) -> a +. u) 0. walls in
    let traced = List.fold_left (fun a (_, t) -> a +. t) 0. walls in
    let duplicates = Spans.total_s (Spans.aggregate ()) [ "interp.run"; "analysis.verdicts" ] in
    {
      attempted = 2 * n;
      failed = List.length !errors;
      errors = truncate_errors !errors;
      metrics = layer_metrics ~c ~trace_overhead:((traced -. duplicates -. untraced) /. untraced) [];
      info =
        [
          Programs.excluded_info;
          ("untraced_passes_wall_s", Json.Float untraced);
          ("traced_passes_wall_s", Json.Float traced);
          ("duplicate_calls_s", Json.Float duplicates);
        ];
    }
  end
