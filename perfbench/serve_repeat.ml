(* serve-repeat: a `riq-sim serve -j 2` daemon on a Unix socket with an
   empty store, and one client keeping one connection that sends one job
   per request in a closed loop. Each job is a pool program with the reuse
   configuration and the differential check on. A seeded 9/16 of the
   requests repeat a uniformly drawn earlier job, so store hits sit beside
   misses; slightly more than half, so that the median request falls
   inside the hit class rather than on the hit/miss boundary, where it
   would flip with the seed. *)

open Riq_util
open Riq_exp
open Riq_svc
open Common

let table = "serve-repeat"
let n_rounds = 4

(* Requests per round. Every round sends the same requests, each to a
   fresh daemon, and a request counts with its fastest time over the
   rounds, so 1000 requests make the tail a p99. *)
let requests_per_round = 1000
let daemon_workers = 2

(* Recorded in every result: polling paces miss latency only, since a hit
   is answered by the first result request. *)
let poll_interval = 0.001

type plan = {
  pool : int array;  (** pool index per request *)
  repeat : bool array;  (** whether the request repeats an earlier job *)
}

let plan ~seed r =
  let repeats = r * 9 / 16 in
  let fresh = Programs.sample ~seed (r - repeats) in
  let rng = Rng.create (seed + 1) in
  let flags = Array.init (r - 1) (fun i -> i < repeats) in
  Rng.shuffle rng flags;
  let repeat = Array.append [| false |] flags in
  let sent = Array.make r 0 and n_sent = ref 0 and next = ref 0 in
  let pool =
    Array.map
      (fun rep ->
        if rep then sent.(Rng.int rng !n_sent)
        else begin
          let j = fresh.(!next) in
          incr next;
          sent.(!n_sent) <- j;
          incr n_sent;
          j
        end)
      repeat
  in
  { pool; repeat }

let job_of program = Job.make ~check:true Programs.cfg program

type daemon = { pid : int; client : Client.t; store_dir : string }

let start_daemon ~riq_sim ~work name =
  let store_dir = Filename.concat work (name ^ "-store") in
  let sock = Filename.concat work (name ^ ".sock") in
  let log = Unix.openfile (Filename.concat work (name ^ ".log")) [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Unix.create_process riq_sim
      [| riq_sim; "serve"; sock; "-j"; string_of_int daemon_workers; "--cache-dir"; store_dir; "--quiet" |]
      null log log
  in
  Unix.close null;
  Unix.close log;
  let deadline = now () +. 30. in
  let rec connect () =
    match Client.connect ~poll_interval (Protocol.Unix_socket sock) with
    | c -> c
    | exception Failure _ when now () < deadline ->
        Unix.sleepf 0.002;
        connect ()
  in
  match connect () with
  | client -> { pid; client; store_dir }
  | exception e ->
      (try Unix.kill pid Sys.sigkill with _ -> ());
      ignore (Unix.waitpid [] pid);
      raise e

(* SIGTERM drains the daemon; it reaps its workers and unlinks the
   socket. Killed outright if it has not exited after 30 s. *)
let stop_daemon d =
  Client.close d.client;
  (try Unix.kill d.pid Sys.sigterm with _ -> ());
  let deadline = now () +. 30. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when now () < deadline ->
        Unix.sleepf 0.005;
        wait ()
    | 0, _ ->
        (try Unix.kill d.pid Sys.sigkill with _ -> ());
        ignore (Unix.waitpid [] d.pid)
    | _ -> ()
  in
  wait ()

let remote_hits d =
  let svc = Client.service_json d.client in
  let get k =
    Option.value ~default:0
      (Option.bind (Json.member "client" svc) (fun c -> Option.bind (Json.member k c) Json.to_int))
  in
  (get "remote_hits", get "submitted", get "reconnects")

(* Every request in order through one connection; returns the outcomes,
   per-request seconds and the wall time. *)
let pass d (jobs : Job.t array) (repeat : bool array) =
  let engine = Engine.create ~backend:(Client.backend d.client) () in
  let r = Array.length jobs in
  let outcomes = Array.make r (Error (Outcome.Worker_crashed "not sent")) in
  let secs = Array.make r 0. in
  let store = Cache.open_ ~root:d.store_dir () in
  let t0 = now () in
  Array.iteri
    (fun i job ->
      let t = now () in
      let o =
        Spans.with_ ~op:i "bench.op" (fun () ->
            let o = Spans.with_ "svc.request" (fun () -> (Engine.run engine [| job |]).(0)) in
            if !Spans.enabled then begin
              (* Calls the client and daemon make internally, made once
                 more from here so each is timed on its own, and taken
                 out of the request's self time. *)
              let deduct_from = Spans.last () in
              let fp = Spans.with_ ~deduct_from "exp.fingerprint" (fun () -> Job.fingerprint job) in
              Spans.with_ ~deduct_from "svc.codec" (fun () ->
                  ignore (Protocol.job_to_wire job);
                  ignore (Protocol.outcome_of_wire (Protocol.outcome_to_wire o)));
              if repeat.(i) then
                ignore (Spans.with_ ~deduct_from "exp.cache_find" (fun () -> Cache.find store fp))
            end;
            o)
      in
      secs.(i) <- now () -. t;
      outcomes.(i) <- o)
    jobs;
  (outcomes, secs, now () -. t0)

(* Per-request digests against the table, plus the rule that a repeat
   returns exactly what the first request for that job returned. *)
let check tbl plan (outcomes : Outcome.t array) =
  let first = Hashtbl.create 1024 in
  let repeat_errors = ref [] in
  Array.iteri
    (fun i o ->
      let j = plan.pool.(i) in
      match Hashtbl.find_opt first j with
      | None -> Hashtbl.replace first j (i, Outcome.zero_timing o)
      | Some (i0, o0) ->
          if Outcome.zero_timing o <> o0 then
            repeat_errors :=
              Printf.sprintf "request %d (pool index %d): repeat differs from request %d" i j i0
              :: !repeat_errors)
    outcomes;
  let chk =
    check_against tbl
      (Array.to_list
         (Array.mapi
            (fun i o ->
              let j = plan.pool.(i) in
              (Printf.sprintf "request %d (pool index %d)" i j, string_of_int j, outcome_digest o))
            outcomes))
  in
  { chk with errors = chk.errors @ List.rev !repeat_errors }

let store_bytes d =
  let c = Cache.open_ ~root:d.store_dir () in
  fun (job : Job.t) ->
    try (Unix.stat (Cache.path c (Job.fingerprint job))).Unix.st_size with _ -> 0

let run ~work ~seed ~trace ~riq_sim =
  let tbl = load_table table in
  let r = requests_per_round in
  let plan = plan ~seed r in
  let repeats = Array.fold_left (fun n b -> if b then n + 1 else n) 0 plan.repeat in
  let daemons = ref 0 in
  let new_daemon () =
    incr daemons;
    start_daemon ~riq_sim ~work (Printf.sprintf "d%d" !daemons)
  in
  (* Set-up: generate and assemble the request programs, start the daemon
     on an empty store and complete the handshake. *)
  let setup () =
    time_setup ~rounds:n_rounds
      ~discard:(fun (_, d) -> stop_daemon d)
      (fun () ->
        let by_index = Hashtbl.create 1024 in
        let jobs =
          Array.map
            (fun j ->
              match Hashtbl.find_opt by_index j with
              | Some job -> job
              | None ->
                  let job = job_of (Programs.program j) in
                  Hashtbl.replace by_index j job;
                  job)
            plan.pool
        in
        (jobs, new_daemon ()))
  in
  let c = counts () in
  let errors = ref [] in
  (* One round: every request through one fresh daemon, checked. *)
  let round ~count =
    let (jobs, d), setup = setup () in
    let outcomes, secs, wall, hits, submitted, reconnects, bytes =
      Fun.protect ~finally:(fun () -> stop_daemon d) (fun () ->
          let outcomes, secs, wall = pass d jobs plan.repeat in
          let hits, submitted, reconnects = remote_hits d in
          let bytes = Array.fold_left (fun acc job -> acc + store_bytes d job) 0 jobs in
          (outcomes, secs, wall, hits, submitted, reconnects, bytes))
    in
    let chk = check tbl plan outcomes in
    errors :=
      !errors @ chk.errors
      @ if reconnects > 0 then [ Printf.sprintf "%d reconnects" reconnects ] else [];
    let sim_insns = ref 0 in
    Array.iteri
      (fun i o ->
        match o with
        | Ok res when not plan.repeat.(i) ->
            let s = res.Outcome.stats in
            sim_insns := !sim_insns + s.Riq_core.Processor.committed;
            if count then begin
              add_stats c s;
              core_cpu := !core_cpu +. res.Outcome.sim_seconds;
              core_stepped :=
                !core_stepped + s.Riq_core.Processor.cycles - stat_by_name s "skipped_cycles"
            end
        | _ -> ())
      outcomes;
    let svc =
      [
        ("requests_per_round", Json.Int r);
        ("repeats_per_round", Json.Int repeats);
        ("remote_hits", Json.Int hits);
        ("remote_submitted", Json.Int submitted);
        ("poll_interval_s", Json.Float poll_interval);
        Programs.excluded_info;
        ("daemon_workers", Json.Int daemon_workers);
        ("digest", Json.String chk.digest);
        ("expected_digest", Json.String chk.expected);
      ]
    in
    ({ setup; wall; op_seconds = secs; insns = !sim_insns }, svc, (hits, submitted, bytes))
  in
  if not trace then begin
    let rounds = List.init n_rounds (fun k -> round ~count:(k = 0)) in
    let _, svc, _ = List.hd rounds in
    let fastest = Array.make r infinity in
    List.iter
      (fun (x, _, _) -> Array.iteri (fun i t -> fastest.(i) <- Float.min fastest.(i) t) x.op_seconds)
      rounds;
    (* The client waits for each response before it sends the next
       request, so a pass's wall time is the sum of its requests' times;
       the pass without the host's noise is the sum of their fastest. *)
    let wall = Array.fold_left ( +. ) 0. fastest in
    let metrics, info =
      e2e ~op_seconds:fastest ~wall ~ops:r (List.map (fun (x, _, _) -> x) rounds)
    in
    {
      attempted = r * n_rounds;
      failed = List.length !errors;
      errors = truncate_errors !errors;
      metrics;
      info = info @ svc;
    }
  end
  else begin
    (* Untraced and traced rounds alternate, so that host drift cancels
       in the tracing overhead; the service latencies come from the
       untraced rounds and the per-layer numbers from the traced ones. *)
    let results =
      List.init (2 * (n_rounds / 2)) (fun k ->
          let traced = k mod 2 = 1 in
          Spans.enabled := traced;
          let res = round ~count:traced in
          Spans.enabled := false;
          (traced, res))
    in
    let untraced = List.filter_map (fun (t, (x, _, _)) -> if t then None else Some x) results in
    let _, (_, svc, (hits, submitted, bytes)) = List.hd results in
    let sum t =
      List.fold_left (fun a (tr, (x, _, _)) -> if tr = t then a +. x.wall else a) 0. results
    in
    let duplicates =
      Spans.total_s (Spans.aggregate ()) [ "exp.fingerprint"; "svc.codec"; "exp.cache_find" ]
    in
    let class_ms ~hits q =
      let xs = ref [] in
      List.iter
        (fun x -> Array.iteri (fun i s -> if plan.repeat.(i) = hits then xs := s :: !xs) x.op_seconds)
        untraced;
      1000. *. Stats.quantile q (Array.of_list !xs)
    in
    let hit_tail = tail_percentile (repeats * List.length untraced) in
    {
      attempted = r * List.length results;
      failed = List.length !errors;
      errors = truncate_errors !errors;
      metrics =
        layer_metrics ~c
          ~trace_overhead:((sum true -. duplicates -. sum false) /. sum false)
          [
            ("exp.outcome_bytes", float_of_int bytes /. float_of_int r);
            ("svc.hit_rtt_p50_ms", class_ms ~hits:true 0.5);
            ("svc.hit_rtt_tail_ms", class_ms ~hits:true hit_tail);
            ("svc.miss_rtt_p50_ms", class_ms ~hits:false 0.5);
            ("svc.store_hit_frac", float_of_int hits /. float_of_int (max 1 submitted));
          ];
      info =
        svc
        @ [
            ("untraced_rounds_wall_s", Json.Float (sum false));
            ("traced_rounds_wall_s", Json.Float (sum true));
            ("duplicate_calls_s", Json.Float duplicates);
            ("hit_tail_percentile", Json.String (pct_label hit_tail));
          ];
    }
  end
