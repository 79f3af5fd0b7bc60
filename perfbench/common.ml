(* Shared pieces of the three workloads: timing, the exact outputs
   digest, the expected-digest tables, the probes around the core, and the
   result record that run.py turns into the final report. *)

open Riq_util
open Riq_core
open Riq_exp

let now = Unix.gettimeofday
let cpu () = (Unix.times ()).Unix.tms_utime

(* A run is several rounds, each a timed set-up and then a timed pass
   over the same ops. A shared host's noise is one-sided (contention only
   adds time) and comes in spells of tens of seconds, so each op counts
   with its fastest time over the rounds, and the run's wall time is the
   fastest round's (or, where ops run one after another, the sum of the
   ops' fastest times). Within a round, a set-up is repeated until
   [setup_budget_s / rounds] seconds have gone by (at most [setup_max]
   times), so that cheap set-ups are timed from enough samples; the run
   reports their median. *)
let setup_max = 100
let setup_budget_s = 3.

let median a = Stats.quantile 0.5 a

(* Run [f] as above; keep the last result and every time. Earlier results
   go to [discard], outside the timed region. *)
let time_setup ?(discard = ignore) ~rounds f =
  let budget = setup_budget_s /. float_of_int rounds in
  let samples = ref [] and last = ref None and spent = ref 0. in
  while !samples = [] || (!spent < budget && List.length !samples < setup_max) do
    Option.iter discard !last;
    let t0 = now () in
    let v = f () in
    let dt = now () -. t0 in
    samples := dt :: !samples;
    spent := !spent +. dt;
    last := Some v
  done;
  (Option.get !last, Array.of_list (List.rev !samples))

(* The highest percentile with at least ten samples beyond it. *)
let tail_percentile n =
  List.fold_left
    (fun best p -> if float_of_int n *. (1. -. p) >= 10. then p else best)
    0.5 [ 0.75; 0.8; 0.9; 0.95; 0.99; 0.999 ]

let pct_label p = Printf.sprintf "p%g" (100. *. p)

(* ------------------------------------------------------------------ *)
(* Exact outputs digest                                                *)
(* ------------------------------------------------------------------ *)

let fbits f = Printf.sprintf "%Lx" (Int64.bits_of_float f)

(* Every field of Processor.stats except the fast-path diagnostics
   [skipped_cycles] and [ffwd_iterations], floats as their bit patterns.
   Listed by name so that a stat added later does not change the digest
   and deleting the fast paths (with their diagnostics) leaves it valid. *)
let stats_canon (s : Processor.stats) =
  String.concat ","
    [
      string_of_int s.Processor.cycles;
      string_of_int s.committed;
      fbits s.ipc;
      string_of_int s.gated_cycles;
      fbits s.gated_fraction;
      string_of_int s.branches;
      string_of_int s.mispredicts;
      string_of_int s.loads;
      string_of_int s.stores;
      string_of_int s.reuse_dispatches;
      string_of_int s.reuse_committed;
      string_of_int s.buffer_attempts;
      string_of_int s.revokes;
      string_of_int s.promotions;
      string_of_int s.reuse_exits;
      fbits s.avg_power;
      string_of_int s.icache_accesses;
      string_of_int s.icache_misses;
      string_of_int s.dcache_accesses;
      string_of_int s.dcache_misses;
    ]

let decision_canon (d : Processor.loop_decision) =
  String.concat ","
    (List.map string_of_int
       [
         d.Processor.ld_head; d.ld_tail; d.ld_span; d.ld_detections; d.ld_nblt_filtered;
         d.ld_attempts; d.ld_revokes; d.ld_rv_inner; d.ld_rv_left; d.ld_rv_overflow;
         d.ld_rv_mispredict; d.ld_nblt_registered; d.ld_promotions; d.ld_reuse_committed;
       ])

(* The Figure 6 power groups plus the total, per cycle. *)
type power = { icache : float; bpred : float; iq : float; overhead : float; total : float }

let power_canon p = String.concat "," (List.map fbits [ p.icache; p.bpred; p.iq; p.overhead; p.total ])

let power_of_account acct =
  let open Riq_power in
  {
    icache = Account.group_power acct Component.G_icache;
    bpred = Account.group_power acct Component.G_bpred;
    iq = Account.group_power acct Component.G_iq;
    overhead = Account.group_power acct Component.G_overhead;
    total = Account.avg_power acct;
  }

let short_hex s = String.sub (Digest.to_hex (Digest.string s)) 0 16

(* A failed op's digest: its message as one token, so it never matches a
   result and still reads as what went wrong. *)
let error_token msg =
  let msg = if String.length msg > 80 then String.sub msg 0 80 else msg in
  "error:" ^ String.map (fun ch -> if ch = ' ' || ch = '\n' || ch = '\t' then '_' else ch) msg

(* Digest of one engine outcome; [sim_seconds] is host timing and is left
   out. The differential check's verdict is part of it, so an unchecked
   outcome never matches a checked expected one. *)
let outcome_digest (o : Outcome.t) =
  match o with
  | Error e -> error_token (Outcome.error_to_string e)
  | Ok r ->
      short_hex
        (String.concat "|"
           [
             stats_canon r.Outcome.stats;
             power_canon
               {
                 icache = r.icache_power;
                 bpred = r.bpred_power;
                 iq = r.iq_power;
                 overhead = r.overhead_power;
                 total = r.total_power;
               };
             (match r.arch_ok with None -> "-" | Some b -> string_of_bool b);
           ])

(* Fold per-op digests, in canonical op order, into the run digest. *)
let fold_digests ds = short_hex (String.concat ";" ds)

(* ------------------------------------------------------------------ *)
(* Expected-digest tables (perfbench/expected/<workload>.txt)          *)
(* ------------------------------------------------------------------ *)

let table_path name = Filename.concat "perfbench/expected" (name ^ ".txt")

let load_table name =
  let tbl = Hashtbl.create 4096 in
  let ic = open_in (table_path name) in
  (try
     while true do
       let line = input_line ic in
       if line <> "" && line.[0] <> '#' then
         match String.split_on_char ' ' line with
         | [ k; v ] -> Hashtbl.replace tbl k v
         | _ -> failwith ("malformed line in " ^ table_path name ^ ": " ^ line)
     done
   with End_of_file -> ());
  close_in ic;
  tbl

let save_table name ~header rows =
  let oc = open_out (table_path name) in
  List.iter (fun h -> Printf.fprintf oc "# %s\n" h) header;
  List.iter (fun (k, v) -> Printf.fprintf oc "%s %s\n" k v) rows;
  close_out oc

(* Compare per-op digests against the table; returns the failures, each
   naming its op, plus the folded run digest and its expected value. *)
type check = { errors : string list; digest : string; expected : string }

let check_against tbl (ops : (string * string * string) list) =
  let errors =
    List.filter_map
      (fun (label, key, got) ->
        match Hashtbl.find_opt tbl key with
        | None -> Some (Printf.sprintf "%s: no expected digest for key %s" label key)
        | Some want when want <> got ->
            Some (Printf.sprintf "%s: digest %s, expected %s" label got want)
        | Some _ -> None)
      ops
  in
  {
    errors;
    digest = fold_digests (List.map (fun (_, _, d) -> d) ops);
    expected =
      fold_digests
        (List.map
           (fun (_, k, _) -> Option.value (Hashtbl.find_opt tbl k) ~default:"?")
           ops);
  }

(* ------------------------------------------------------------------ *)
(* Probes around the core                                              *)
(* ------------------------------------------------------------------ *)

(* Read by name from the canonical stats rendering so the benchmark keeps
   building if the fast paths and their diagnostics are deleted (they
   then read as 0). *)
let stat_by_name (s : Processor.stats) key =
  match Json.member key (Riq_harness.Report.stats_json s) with
  | Some (Json.Int n) -> n
  | _ -> 0

(* Counts summed over every simulation of a run, from Processor.stats. *)
type counts = {
  mutable sims : int;
  mutable cycles : int;
  mutable committed : int;
  mutable skipped : int;
  mutable ffwd : int;
  mutable icache_acc : int;
  mutable icache_miss : int;
  mutable dcache_acc : int;
  mutable dcache_miss : int;
  mutable branches : int;
  mutable mispredicts : int;
}

let counts () =
  {
    sims = 0; cycles = 0; committed = 0; skipped = 0; ffwd = 0; icache_acc = 0;
    icache_miss = 0; dcache_acc = 0; dcache_miss = 0; branches = 0; mispredicts = 0;
  }

let add_stats c (s : Processor.stats) =
  c.sims <- c.sims + 1;
  c.cycles <- c.cycles + s.Processor.cycles;
  c.committed <- c.committed + s.committed;
  c.skipped <- c.skipped + stat_by_name s "skipped_cycles";
  c.ffwd <- c.ffwd + stat_by_name s "ffwd_iterations";
  c.icache_acc <- c.icache_acc + s.icache_accesses;
  c.icache_miss <- c.icache_miss + s.icache_misses;
  c.dcache_acc <- c.dcache_acc + s.dcache_accesses;
  c.dcache_miss <- c.dcache_miss + s.dcache_misses;
  c.branches <- c.branches + s.branches;
  c.mispredicts <- c.mispredicts + s.mispredicts

(* CPU seconds and minor words inside Processor.run, accumulated only
   while tracing (the untraced runs make no extra calls). *)
let core_cpu = ref 0.
let core_words = ref 0.
let core_committed = ref 0
let core_stepped = ref 0

let core_create cfg program = Spans.with_ "core.create" (fun () -> Processor.create cfg program)

let core_run ~cycle_limit p =
  if not !Spans.enabled then Processor.run ~cycle_limit p
  else begin
    let c0 = cpu () and w0 = Gc.minor_words () in
    let stop = Spans.with_ "core.run" (fun () -> Processor.run ~cycle_limit p) in
    core_cpu := !core_cpu +. (cpu () -. c0);
    core_words := !core_words +. (Gc.minor_words () -. w0);
    let s = Processor.stats p in
    core_committed := !core_committed + s.Processor.committed;
    core_stepped := !core_stepped + s.Processor.cycles - stat_by_name s "skipped_cycles";
    stop
  end

(* ------------------------------------------------------------------ *)
(* Result                                                              *)
(* ------------------------------------------------------------------ *)

type metric = { name : string; value : float; unit_ : string }

type result = {
  attempted : int;
  failed : int;
  errors : string list;  (** one line per wrong or failed op, first ones only *)
  metrics : metric list;  (** end-to-end (untraced) or per-layer (traced) *)
  info : (string * Json.t) list;  (** everything else worth recording *)
}

let m name unit_ value = { name; value; unit_ }

(* One round: its set-up samples, the wall time of its pass, each op's
   seconds, and the committed instructions of every simulation it ran. *)
type round = { setup : float array; wall : float; op_seconds : float array; insns : int }

(* End-to-end metrics shared by every workload, from rounds of [ops] ops
   each; the op latencies are [op_seconds], by default every round's, and
   the wall time is [wall], by default the fastest round's. *)
let e2e ?op_seconds ?wall ~ops (rounds : round list) =
  let setup = Array.concat (List.map (fun r -> r.setup) rounds) in
  let walls = Array.of_list (List.map (fun r -> r.wall) rounds) in
  let op_seconds =
    match op_seconds with
    | Some a -> a
    | None -> Array.concat (List.map (fun r -> r.op_seconds) rounds)
  in
  let fastest = List.hd (List.sort (fun a b -> compare a.wall b.wall) rounds) in
  let wall = Option.value wall ~default:fastest.wall and sim_insns = fastest.insns in
  let tail = tail_percentile (Array.length op_seconds) in
  let floats a = Json.List (Array.to_list (Array.map (fun x -> Json.Float x) a)) in
  ( [
      m "setup_s" "s" (median setup);
      m "wall_s" "s" wall;
      m "ops_per_s" "1/s" (float_of_int ops /. wall);
      m "sim_minsns_per_s" "Minsn/s" (float_of_int sim_insns /. wall /. 1e6);
      m "op_p50_ms" "ms" (1000. *. Stats.quantile 0.5 op_seconds);
      m "op_tail_ms" "ms" (1000. *. Stats.quantile tail op_seconds);
    ],
    [
      ("rounds", Json.Int (List.length rounds));
      ("ops_per_round", Json.Int ops);
      ("round_wall_s", floats walls);
      ("op_tail_percentile", Json.String (pct_label tail));
      ("op_samples", Json.Int (Array.length op_seconds));
      ("setup_samples_s", floats setup);
    ] )

(* Per-layer metrics; every workload reports every name, with 0 for a
   layer the workload does not exercise (see README.md). *)
let layer_metrics ~(c : counts) ~trace_overhead extra =
  let by_name = Spans.aggregate () in
  let f = float_of_int in
  let self l = m ("self_ms." ^ l) "ms" (Spans.layer_self_ms by_name l) in
  let named =
    [
      m "core.run_cpu_s" "s" !core_cpu;
      m "core.ns_per_cycle" "ns"
        (if !core_stepped > 0 then 1e9 *. !core_cpu /. f !core_stepped else 0.);
      m "core.minor_words_per_insn" "words/insn"
        (if !core_committed > 0 then !core_words /. f !core_committed else 0.);
      m "core.create_ms" "ms" (Spans.mean_ms by_name "core.create");
      m "core.skipped_cycles" "count" (f c.skipped);
      m "core.ffwd_iterations" "count" (f c.ffwd);
      m "interp.run_ms" "ms" (Spans.mean_ms by_name "interp.run");
      m "analysis.verdicts_ms" "ms" (Spans.mean_ms by_name "analysis.verdicts");
      m "fuzz.gen_ms" "ms" (Spans.mean_ms by_name "fuzz.gen");
      m "build.program_ms" "ms" (Spans.mean_ms by_name "build.program");
      m "exp.fingerprint_ms" "ms" (Spans.mean_ms by_name "exp.fingerprint");
      m "exp.cache_store_ms" "ms" (Spans.mean_ms by_name "exp.cache_store");
      m "exp.cache_find_ms" "ms" (Spans.mean_ms by_name "exp.cache_find");
    ]
  in
  let get k = Option.value (List.assoc_opt k extra) ~default:0. in
  let from_extra =
    [
      m "exp.outcome_bytes" "bytes" (get "exp.outcome_bytes");
      m "exp.overhead_frac" "ratio" (get "exp.overhead_frac");
      m "exp.utilization" "ratio" (get "exp.utilization");
      m "svc.hit_rtt_p50_ms" "ms" (get "svc.hit_rtt_p50_ms");
      m "svc.hit_rtt_tail_ms" "ms" (get "svc.hit_rtt_tail_ms");
      m "svc.miss_rtt_p50_ms" "ms" (get "svc.miss_rtt_p50_ms");
      m "svc.store_hit_frac" "ratio" (get "svc.store_hit_frac");
    ]
  in
  let counts =
    [
      m "sim.cycles" "count" (f c.cycles);
      m "sim.committed" "count" (f c.committed);
      m "sim.icache_accesses" "count" (f c.icache_acc);
      m "sim.icache_misses" "count" (f c.icache_miss);
      m "sim.dcache_accesses" "count" (f c.dcache_acc);
      m "sim.dcache_misses" "count" (f c.dcache_miss);
      m "sim.branches" "count" (f c.branches);
      m "sim.mispredicts" "count" (f c.mispredicts);
    ]
  in
  named @ from_extra
  @ List.map self [ "bench"; "build"; "harness"; "fuzz"; "analysis"; "interp"; "core"; "exp"; "svc" ]
  @ counts
  @ [ m "trace.overhead_frac" "ratio" trace_overhead ]

let truncate_errors errs =
  let n = List.length errs in
  if n <= 20 then errs
  else List.filteri (fun i _ -> i < 20) errs @ [ Printf.sprintf "... and %d more" (n - 20) ]
