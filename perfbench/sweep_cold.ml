(* sweep-cold: the paper's matrix (8 kernels x IQ {32,64,128,256} x
   {baseline, reuse}, every job checked against the reference
   interpreter) through Riq_exp.Engine with 2 fork workers and a fresh,
   empty cache, as `riq-sim sweep -j 2` runs it. The seed only permutes
   the submission order; outputs are compared in canonical order. *)

open Riq_util
open Riq_exp
open Riq_core
open Riq_interp
open Common

let workers = 2
let table = "sweep-cold"

(* Labels in Sweep.jobs order: benchmark-major, then size, baseline
   before reuse. *)
let labels () =
  Array.of_list
    (List.concat_map
       (fun w ->
         List.concat_map
           (fun size ->
             [
               Printf.sprintf "%s/%d/baseline" w.Riq_workloads.Workloads.name size;
               Printf.sprintf "%s/%d/reuse" w.Riq_workloads.Workloads.name size;
             ])
           Riq_harness.Sweep.default_sizes)
       Riq_workloads.Workloads.all)

(* Rounds per run, one cold sweep each, so that the fastest round and
   each job's fastest time are steady estimates. *)
let n_rounds = 3

let permutation ~seed n =
  let p = Array.init n Fun.id in
  Rng.shuffle (Rng.create seed) p;
  p

let fresh_dir work name =
  let d = Filename.concat work name in
  Sys.mkdir d 0o755;
  d

(* One job in this process, with every layer call visible to the tracer.
   Same steps as Riq_exp.Runner.execute for a checked job without the
   verdict cross-check, which is what Sweep.jobs builds. *)
let execute_visible (job : Job.t) : Outcome.t =
  assert (not job.Job.verdicts);
  let p = core_create job.Job.cfg job.Job.program in
  let c0 = cpu () in
  let stop = core_run ~cycle_limit:job.Job.cycle_limit p in
  let sim_seconds = cpu () -. c0 in
  match stop with
  | Processor.Cycle_limit -> Error (Outcome.Cycle_limit_exceeded job.Job.cycle_limit)
  | Processor.Halted -> (
      let arch_ok =
        if not job.Job.check then Ok None
        else
          Spans.with_ "interp.run" (fun () ->
              let m = Machine.create job.Job.program in
              match Machine.run m with
              | Machine.Halted ->
                  let golden = Machine.arch_state m and got = Processor.arch_state p in
                  if Machine.equal_arch golden got then Ok (Some true)
                  else Error (Outcome.Arch_state_mismatch (Machine.diff_string golden got))
              | Machine.Insn_limit | Machine.Bad_pc _ -> Error Outcome.Reference_did_not_halt)
      in
      match arch_ok with
      | Error e -> Error e
      | Ok arch_ok ->
          let pw = power_of_account (Processor.account p) in
          Ok
            {
              Outcome.stats = Processor.stats p;
              sim_seconds;
              icache_power = pw.icache;
              bpred_power = pw.bpred;
              iq_power = pw.iq;
              overhead_power = pw.overhead;
              total_power = pw.total;
              arch_ok;
            })

(* Tracing overhead is measured on job pairs: every [twin_every]-th job
   also runs once untraced, right before or after its traced run
   (alternating), so that host drift cancels within the pair. *)
let twin_every = 4
let twin_traced = ref 0.
let twin_untraced = ref 0.

let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

let visible_backend : Backend.t =
  {
    Backend.name = "bench-in-process";
    parallelism = 1;
    telemetry = Backend.no_telemetry;
    execute =
      (fun ~timeout:_ ~jobs ~indices ~on_result ->
        let busy = ref 0. in
        List.iter
          (fun i ->
            let traced () =
              timed (fun () -> Spans.with_ ~op:i "exp.job" (fun () -> execute_visible jobs.(i)))
            in
            let untraced () =
              Spans.with_ ~op:i "bench.twin" (fun () ->
                  Spans.enabled := false;
                  let _, dt = timed (fun () -> execute_visible jobs.(i)) in
                  Spans.enabled := true;
                  twin_untraced := !twin_untraced +. dt)
            in
            let twin = !Spans.enabled && i mod twin_every = 0 in
            if twin && i / twin_every mod 2 = 0 then untraced ();
            let o, dt = traced () in
            if twin then begin
              twin_traced := !twin_traced +. dt;
              if i / twin_every mod 2 = 1 then untraced ()
            end;
            busy := !busy +. dt;
            on_result i ~seconds:dt o)
          indices;
        { Backend.busy_seconds = !busy; retries = 0 });
  }

(* Fig 7 average power reduction at IQ 32 and 256 against the paper's
   approximate values recorded in EXPERIMENTS.md (~8 % and ~12 %). *)
let fig7_err_pp (outcomes : Outcome.t array) =
  let sizes = Riq_harness.Sweep.default_sizes in
  let ns = List.length sizes in
  let nk = Array.length outcomes / (2 * ns) in
  let total i = match outcomes.(i) with Ok r -> r.Outcome.total_power | Error _ -> nan in
  let avg size =
    let s = List.length (List.filter (fun x -> x < size) sizes) in
    Stats.mean
      (Array.init nk (fun k ->
           let i = 2 * ((k * ns) + s) in
           Riq_harness.Run.reduction (total i) (total (i + 1))))
  in
  let a32 = avg 32 and a256 = avg 256 in
  ((Float.abs (a32 -. 8.) +. Float.abs (a256 -. 12.)) /. 2., a32, a256)

(* Check one sweep's outcomes (canonical order) against the table. *)
let check_outcomes tbl labels (outcomes : Outcome.t array) =
  let ops =
    Array.to_list
      (Array.mapi
         (fun i o -> ("job " ^ labels.(i), labels.(i), outcome_digest o))
         outcomes)
  in
  check_against tbl ops

let unpermute perm (outcomes : Outcome.t array) =
  let out = Array.make (Array.length outcomes) outcomes.(0) in
  Array.iteri (fun k i -> out.(i) <- outcomes.(k)) perm;
  out

(* The 2-worker fork pool that Engine.create ~workers builds, keeping
   each job's seconds by its index in the submitted batch. *)
let pool_engine ?(secs = [||]) cache =
  let pool = Backend.fork_pool ~workers in
  let execute ~timeout ~jobs ~indices ~on_result =
    pool.Backend.execute ~timeout ~jobs ~indices ~on_result:(fun i ~seconds o ->
        if i < Array.length secs then secs.(i) <- seconds;
        on_result i ~seconds o)
  in
  Engine.create ~backend:{ pool with Backend.execute } ~cache ()
let visible_engine cache = Engine.create ~backend:visible_backend ~cache ()

let sum_sim (outcomes : Outcome.t array) =
  Array.fold_left
    (fun (insns, secs) o ->
      match o with
      | Ok r -> (insns + r.Outcome.stats.Processor.committed, secs +. r.Outcome.sim_seconds)
      | Error _ -> (insns, secs))
    (0, 0.) outcomes

let engine_overhead engine outcomes =
  let js = Engine.job_seconds engine in
  let busy = Array.fold_left ( +. ) 0. js in
  let _, sim = sum_sim outcomes in
  if busy > 0. then 1. -. (sim /. busy) else 0.

let run ~work ~seed ~trace =
  let tbl = load_table table in
  let labels = labels () in
  let n = Array.length labels in
  let perm = permutation ~seed n in
  let c = counts () in
  let errors = ref [] in
  let record (chk : check) (outcomes : Outcome.t array) =
    Array.iter (function Ok r -> add_stats c r.Outcome.stats | Error _ -> ()) outcomes;
    errors := !errors @ chk.errors
  in
  let caches = ref 0 in
  let fresh_cache () =
    incr caches;
    Cache.open_ ~root:(fresh_dir work (Printf.sprintf "cache%d" !caches)) ()
  in
  (* Set-up: compile the kernels into the job batch, open an empty cache
     and create the 2-worker engine; everything before the first
     submission. The pool forks its workers on submission. *)
  let setup ?secs () =
    time_setup ~rounds:(n_rounds) (fun () ->
        let jobs = Riq_harness.Sweep.jobs () in
        (jobs, pool_engine ?secs (fresh_cache ())))
  in
  let submit engine jobs =
    unpermute perm (Engine.run engine (Array.map (fun i -> jobs.(i)) perm))
  in
  if not trace then begin
    let first = ref None in
    let fastest_job = Array.make n infinity in
    let rounds =
      List.init n_rounds (fun k ->
          let secs = Array.make n 0. in
          let (jobs, engine), setup = setup ~secs () in
          let t0 = now () in
          let outcomes = submit engine jobs in
          let wall = now () -. t0 in
          let chk = check_outcomes tbl labels outcomes in
          record chk outcomes;
          let st = Engine.stats engine in
          if st.Engine.cache_hits <> 0 || st.Engine.executed <> n then
            errors :=
              !errors
              @ [ Printf.sprintf "round %d: %d cache hits and %d jobs executed, want 0 and %d"
                    (k + 1) st.Engine.cache_hits st.Engine.executed n ];
          if k = 0 then first := Some (chk, fig7_err_pp outcomes);
          Array.iteri (fun b i -> fastest_job.(i) <- Float.min fastest_job.(i) secs.(b)) perm;
          { setup; wall; op_seconds = secs; insns = fst (sum_sim outcomes) })
    in
    let chk, (err, a32, a256) = Option.get !first in
    let metrics, info = e2e ~op_seconds:fastest_job ~ops:n rounds in
    {
      attempted = n * List.length rounds;
      failed = List.length !errors;
      errors = truncate_errors !errors;
      metrics;
      info =
        info
        @ [
            ("workers", Json.Int workers);
            ("digest", Json.String chk.digest);
            ("expected_digest", Json.String chk.expected);
            ("fig7_err_pp", Json.Float err);
            ("fig7_avg_reduction_iq32_pct", Json.Float a32);
            ("fig7_avg_reduction_iq256_pct", Json.Float a256);
            ( "fig7_note",
              Json.String
                "simulated; paper values ~8 % (IQ 32) and ~12 % (IQ 256) are approximate \
                 and the model is otherwise unvalidated" );
          ];
    }
  end
  else begin
    (* Traced run. Pass A: the untraced 2-worker sweep, for the engine's
       utilization and overhead. Pass C: the same sweep traced in this
       process through the visible backend, with untraced twins of some
       jobs for the tracing overhead. *)
    let (jobs, engine), _ = setup () in
    let outcomes_a = submit engine jobs in
    Spans.reset ();
    Spans.enabled := true;
    List.iter
      (fun w ->
        ignore (Spans.with_ "build.program" (fun () -> Riq_workloads.Workloads.program w)))
      Riq_workloads.Workloads.all;
    ignore (Spans.with_ "harness.jobs" (fun () -> Riq_harness.Sweep.jobs ()));
    let engine_c = visible_engine (fresh_cache ()) in
    let outcomes_c = Spans.with_ "exp.engine_run" (fun () -> submit engine_c jobs) in
    let deduct_from = Spans.last () in
    let cache_c = Option.get (Engine.cache engine_c) in
    (* The engine's fingerprint and cache calls, made once more from here
       so each is timed on its own, and taken out of the engine run's self
       time: reads hit the entries pass C wrote. *)
    let scratch = fresh_cache () in
    let bytes = ref 0 in
    Array.iteri
      (fun i job ->
        let fp = Spans.with_ ~op:i ~deduct_from "exp.fingerprint" (fun () -> Job.fingerprint job) in
        ignore (Spans.with_ ~op:i ~deduct_from "exp.cache_find" (fun () -> Cache.find cache_c fp));
        Spans.with_ ~op:i ~deduct_from "exp.cache_store" (fun () ->
            Cache.store scratch fp outcomes_c.(i));
        bytes := !bytes + (try (Unix.stat (Cache.path cache_c fp)).Unix.st_size with _ -> 0))
      jobs;
    Spans.enabled := false;
    List.iter (fun o -> record (check_outcomes tbl labels o) o) [ outcomes_a; outcomes_c ];
    {
      attempted = 2 * n;
      failed = List.length !errors;
      errors = truncate_errors !errors;
      metrics =
        layer_metrics ~c
          ~trace_overhead:((!twin_traced -. !twin_untraced) /. !twin_untraced)
          [
            ("exp.outcome_bytes", float_of_int !bytes /. float_of_int n);
            ("exp.overhead_frac", engine_overhead engine outcomes_a);
            ("exp.utilization", Engine.utilization engine);
          ];
      info =
        [
          ("twin_jobs_untraced_s", Json.Float !twin_untraced);
          ("twin_jobs_traced_s", Json.Float !twin_traced);
          ("pool_wall_s", Json.Float (Engine.stats engine).Engine.wall_seconds);
        ];
    }
  end
