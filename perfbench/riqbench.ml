(* The benchmark executable. perfbench/run.py builds it and drives it; run
   it directly only to regenerate the expected digests or the self-tests:

     riqbench run --workload W --seed N --trace 0|1
                  --riq-sim PATH --work DIR --out FILE [--trace-out FILE]
     riqbench expect                  rewrite perfbench/expected/*.txt
     riqbench selftest --riq-sim PATH --work DIR

   Paths are relative to the repository root, the working directory. *)

open Riq_util
open Common

let workloads = [ "sweep-cold"; "fuzz-campaign"; "serve-repeat" ]

let result_json ~workload ~seed ~trace (r : result) =
  Json.Obj
    [
      ("workload", Json.String workload);
      ("seed", Json.Int seed);
      ("trace", Json.Bool trace);
      ("ocaml_version", Json.String Sys.ocaml_version);
      ("attempted", Json.Int r.attempted);
      ("failed", Json.Int r.failed);
      ("errors", Json.List (List.map (fun e -> Json.String e) r.errors));
      ( "metrics",
        Json.Obj
          (List.map
             (fun x -> (x.name, Json.Obj [ ("value", Json.Float x.value); ("unit", Json.String x.unit_) ]))
             r.metrics) );
      ("info", Json.Obj r.info);
    ]

let run_workload ~workload ~seed ~trace ~riq_sim ~work =
  match workload with
  | "sweep-cold" -> Sweep_cold.run ~work ~seed ~trace
  | "fuzz-campaign" -> Fuzz_campaign.run ~work ~seed ~trace
  | "serve-repeat" -> Serve_repeat.run ~work ~seed ~trace ~riq_sim
  | w -> failwith ("unknown workload " ^ w)

(* ------------------------------------------------------------------ *)
(* Expected digests                                                    *)
(* ------------------------------------------------------------------ *)

let header what =
  [
    what;
    "Generated by `riqbench expect`; regenerate only for an intended change to";
    "simulated results, and say so in CHANGES.md.";
  ]

let expect () =
  let labels = Sweep_cold.labels () in
  let outcomes =
    Riq_exp.Engine.run (Riq_exp.Engine.create ~workers:2 ()) (Riq_harness.Sweep.jobs ())
  in
  save_table Sweep_cold.table
    ~header:(header "sweep-cold: per-job outcome digest, Sweep.jobs order")
    (Array.to_list (Array.mapi (fun i o -> (labels.(i), outcome_digest o)) outcomes));
  let fuzz = ref [] and serve = ref [] in
  for j = Programs.size - 1 downto 0 do
    let program = Programs.program j in
    fuzz := (string_of_int j, fst (Fuzz_campaign.check_one program)) :: !fuzz;
    serve :=
      ( string_of_int j,
        outcome_digest (Riq_exp.Runner.execute (Serve_repeat.job_of program)) )
      :: !serve
  done;
  save_table Fuzz_campaign.table
    ~header:(header "fuzz-campaign: per-pool-program oracle digest (all legs)")
    !fuzz;
  save_table Serve_repeat.table
    ~header:(header "serve-repeat: per-pool-program outcome digest, reuse config, checked")
    !serve

(* ------------------------------------------------------------------ *)
(* Self-tests                                                          *)
(* ------------------------------------------------------------------ *)

let selftest ~riq_sim ~work =
  let failures = ref 0 in
  let expect_true name ok =
    Printf.printf "%s %s\n%!" (if ok then "PASS" else "FAIL") name;
    if not ok then incr failures
  in
  (* 1. sweep-cold digest at 1 and 2 workers, cold and warm cache. *)
  let tbl = load_table Sweep_cold.table in
  let labels = Sweep_cold.labels () in
  let jobs = Riq_harness.Sweep.jobs () in
  let digest ~workers dir =
    let cache = Riq_exp.Cache.open_ ~root:(Filename.concat work dir) () in
    let e = Riq_exp.Engine.create ~workers ~cache () in
    let o = Riq_exp.Engine.run e jobs in
    (Sweep_cold.check_outcomes tbl labels o, o, Riq_exp.Engine.stats e)
  in
  let one, outcomes, _ = digest ~workers:1 "w1" in
  let two, _, _ = digest ~workers:2 "w2" in
  let warm, _, warm_stats = digest ~workers:2 "w2" in
  expect_true "sweep-cold: outputs match the expected digests" (one.errors = []);
  expect_true "sweep-cold: digest identical at 1 and 2 workers" (one.digest = two.digest);
  expect_true "sweep-cold: digest identical with a warm cache"
    (warm.digest = two.digest && warm_stats.Riq_exp.Engine.cache_hits = Array.length jobs);
  (* 2. A perturbed stat in one job fails the check and names the job. *)
  let perturbed = Array.copy outcomes in
  (match perturbed.(5) with
  | Ok r ->
      let s = r.Riq_exp.Outcome.stats in
      perturbed.(5) <- Ok { r with stats = { s with Riq_core.Processor.dcache_misses = s.dcache_misses + 1 } }
  | Error _ -> ());
  let bad = Sweep_cold.check_outcomes tbl labels perturbed in
  expect_true "outputs check: one perturbed stat fails and names the job"
    (match bad.errors with
    | [ e ] -> String.length e > 4 && String.sub e 0 (4 + String.length labels.(5)) = "job " ^ labels.(5)
    | _ -> false);
  (* 3. Results through the daemon equal the in-process ones. *)
  let plan = Serve_repeat.plan ~seed:7 32 in
  let pjobs = Array.map (fun j -> Serve_repeat.job_of (Programs.program j)) plan.Serve_repeat.pool in
  let d = Serve_repeat.start_daemon ~riq_sim ~work "selftest" in
  let remote, _, _ =
    Fun.protect ~finally:(fun () -> Serve_repeat.stop_daemon d) (fun () ->
        Serve_repeat.pass d pjobs plan.Serve_repeat.repeat)
  in
  let local = Array.map Riq_exp.Runner.execute pjobs in
  expect_true "serve-repeat: daemon outcomes equal in-process outcomes"
    (Array.for_all2
       (fun a b -> Riq_exp.Outcome.zero_timing a = Riq_exp.Outcome.zero_timing b)
       remote local);
  let serve_tbl = load_table Serve_repeat.table in
  expect_true "serve-repeat: daemon outcomes match the expected digests"
    ((Serve_repeat.check serve_tbl plan remote).errors = []);
  (* 4. Inputs are a function of the seed. *)
  let fuzz_inputs seed =
    Array.map (fun j -> Riq_fuzz.Prog.render (Programs.prog j)) (Programs.sample ~seed 50)
  in
  expect_true "fuzz-campaign: same seed, same programs" (fuzz_inputs 3 = fuzz_inputs 3);
  expect_true "fuzz-campaign: other seed, other programs" (fuzz_inputs 3 <> fuzz_inputs 4);
  let serve_inputs seed =
    let p = Serve_repeat.plan ~seed 400 in
    (p.Serve_repeat.pool, p.Serve_repeat.repeat)
  in
  expect_true "serve-repeat: same seed, same requests" (serve_inputs 3 = serve_inputs 3);
  expect_true "serve-repeat: other seed, other requests" (serve_inputs 3 <> serve_inputs 4);
  expect_true "sweep-cold: other seed, other submission order"
    (Sweep_cold.permutation ~seed:3 64 <> Sweep_cold.permutation ~seed:4 64);
  (* 5. The pool programs left out as known simulator defects still fail,
     both in the expected tables and when run again. *)
  let fuzz_tbl = load_table Fuzz_campaign.table in
  let is_error tbl j =
    let d = Hashtbl.find tbl (string_of_int j) in
    String.length d > 6 && String.sub d 0 6 = "error:"
  in
  let listed = List.filter (fun j -> is_error fuzz_tbl j || is_error serve_tbl j) (List.init Programs.size Fun.id) in
  expect_true "known failures: exactly the listed pool programs fail in the tables"
    (listed = Programs.known_failures);
  List.iter
    (fun j ->
      let d, _ = Fuzz_campaign.check_one (Programs.program j) in
      expect_true
        (Printf.sprintf "known failure: pool program %d still fails the oracle (drop it from \
                         Programs.known_failures once fixed)" j)
        (d = Hashtbl.find fuzz_tbl (string_of_int j)))
    Programs.known_failures;
  Printf.printf "%d failure(s)\n" !failures;
  exit (if !failures = 0 then 0 else 1)

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let () =
  Riq_obs.Log.set_level Riq_obs.Log.Error;
  let args = Array.to_list Sys.argv in
  let rec opt name = function
    | k :: v :: _ when k = name -> Some v
    | _ :: rest -> opt name rest
    | [] -> None
  in
  let req name =
    match opt name args with Some v -> v | None -> failwith ("missing " ^ name)
  in
  match args with
  | _ :: "run" :: _ ->
      let workload = req "--workload" in
      if not (List.mem workload workloads) then failwith ("unknown workload " ^ workload);
      let seed = int_of_string (req "--seed") in
      let trace = req "--trace" = "1" in
      let r = run_workload ~workload ~seed ~trace ~riq_sim:(req "--riq-sim") ~work:(req "--work") in
      Json.to_file (req "--out") (result_json ~workload ~seed ~trace r);
      Option.iter (fun f -> if trace then Json.to_file f (Spans.to_json ())) (opt "--trace-out" args)
  | _ :: "expect" :: _ -> expect ()
  | _ :: "selftest" :: _ -> selftest ~riq_sim:(req "--riq-sim") ~work:(req "--work")
  | _ ->
      prerr_endline "usage: riqbench (run|expect|selftest) ...";
      exit 2
