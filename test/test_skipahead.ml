open Riq_ooo
open Riq_core
open Riq_obs
open Riq_workloads
open Riq_fuzz

(* Differential suite for the two algorithmic fast paths (DESIGN §9):
   cycle skip-ahead over quiescent stretches and analytic steady-state
   loop fast-forward. Every kernel and every fixed-corpus program runs
   through [Processor] twice — fast paths forced off (pure cycle-by-cycle
   execution) and forced on — and the two runs must agree bit-for-bit on
   architectural state, every stat counter (power down to the float
   bits), the per-loop decision logs, and the sampler time series. The
   only permitted difference is the pair of diagnostic counters that
   report how often the fast paths fired.

   (The fast-on-vs-[Slowpath] leg lives in test_fastpath.ml: [Processor]
   runs with the default config there, which has both fast paths on.) *)

let base_seed = 42
let corpus_size = 50

let corpus =
  lazy
    (List.init corpus_size (fun i ->
         let prog = Gen.program ~seed:(Gen.derive_seed base_seed i) () in
         match Prog.to_program prog with
         | Ok p -> (Printf.sprintf "seed-%d" prog.Prog.seed, p)
         | Error msg ->
             Alcotest.failf "corpus program (seed %d) does not assemble: %s"
               prog.Prog.seed msg))

let fast_off cfg = { cfg with Config.skip_ahead = false; loop_ffwd = false }
let fast_on cfg = { cfg with Config.skip_ahead = true; loop_ffwd = true }

let configs =
  [ ("baseline", Config.baseline); ("reuse", Config.reuse) ]

(* Everything except the two fast-path diagnostic counters must be
   bit-identical; comparing scrubbed records covers future stat fields
   by default. *)
let check_stats name (off : Processor.stats) (on : Processor.stats) =
  let scrub (s : Processor.stats) =
    { s with Processor.skipped_cycles = 0; ffwd_iterations = 0 }
  in
  let off' = scrub off and on' = scrub on in
  if off' <> on' then begin
    let chk_i what a b = Alcotest.(check int) (name ^ ": " ^ what) a b in
    chk_i "cycles" off.Processor.cycles on.Processor.cycles;
    chk_i "committed" off.Processor.committed on.Processor.committed;
    chk_i "gated_cycles" off.Processor.gated_cycles on.Processor.gated_cycles;
    chk_i "branches" off.Processor.branches on.Processor.branches;
    chk_i "mispredicts" off.Processor.mispredicts on.Processor.mispredicts;
    chk_i "loads" off.Processor.loads on.Processor.loads;
    chk_i "stores" off.Processor.stores on.Processor.stores;
    chk_i "reuse_dispatches" off.Processor.reuse_dispatches
      on.Processor.reuse_dispatches;
    chk_i "reuse_committed" off.Processor.reuse_committed
      on.Processor.reuse_committed;
    chk_i "buffer_attempts" off.Processor.buffer_attempts
      on.Processor.buffer_attempts;
    chk_i "revokes" off.Processor.revokes on.Processor.revokes;
    chk_i "promotions" off.Processor.promotions on.Processor.promotions;
    chk_i "reuse_exits" off.Processor.reuse_exits on.Processor.reuse_exits;
    chk_i "icache_accesses" off.Processor.icache_accesses
      on.Processor.icache_accesses;
    chk_i "icache_misses" off.Processor.icache_misses
      on.Processor.icache_misses;
    chk_i "dcache_accesses" off.Processor.dcache_accesses
      on.Processor.dcache_accesses;
    chk_i "dcache_misses" off.Processor.dcache_misses
      on.Processor.dcache_misses;
    Alcotest.(check int64)
      (name ^ ": avg_power bits")
      (Int64.bits_of_float off.Processor.avg_power)
      (Int64.bits_of_float on.Processor.avg_power);
    (* Field-by-field found nothing: fail on the record anyway so a new
       stat field diverging cannot slip through. *)
    Alcotest.(check bool) (name ^ ": stats records equal") true (off' = on')
  end

let check_samplers name off on =
  Alcotest.(check int)
    (name ^ ": sampler length")
    (Sampler.length off) (Sampler.length on);
  Alcotest.(check int)
    (name ^ ": sampler stride")
    (Sampler.stride off) (Sampler.stride on);
  List.iter2
    (fun (c_off, v_off) (c_on, v_on) ->
      Alcotest.(check int) (name ^ ": sample cycle") c_off c_on;
      Array.iteri
        (fun i v ->
          Alcotest.(check int64)
            (Printf.sprintf "%s: sample @%d ch%d bits" name c_off i)
            (Int64.bits_of_float v)
            (Int64.bits_of_float v_on.(i)))
        v_off)
    (Sampler.samples off) (Sampler.samples on)

(* Run fast-off and fast-on over the same program/config; return the
   fast-on stats so callers can assert coverage. *)
let run_pair name program cfg =
  let run c =
    let sampler = Sampler.create ~channels:Processor.sample_channels () in
    let p = Processor.create ~sampler c program in
    (match Processor.run p with
    | Processor.Halted -> ()
    | Processor.Cycle_limit -> Alcotest.failf "%s: hit cycle limit" name);
    (p, sampler)
  in
  let off, s_off = run (fast_off cfg) in
  let on, s_on = run (fast_on cfg) in
  Alcotest.(check int)
    (name ^ ": fast-off runs no fast path")
    0
    ((Processor.stats off).Processor.skipped_cycles
    + (Processor.stats off).Processor.ffwd_iterations);
  let a_off = Processor.arch_state off and a_on = Processor.arch_state on in
  if not (Riq_interp.Machine.equal_arch a_off a_on) then
    Alcotest.failf "%s: arch state diverges\n%s" name
      (Riq_interp.Machine.diff_string a_off a_on);
  check_stats name (Processor.stats off) (Processor.stats on);
  (if Processor.loop_decisions off <> Processor.loop_decisions on then
     Alcotest.failf "%s: loop_decisions diverge" name);
  check_samplers name s_off s_on;
  Processor.stats on

let test_kernels () =
  let skipped = ref 0 and ffwd = ref 0 in
  List.iter
    (fun w ->
      List.iter
        (fun (cname, cfg) ->
          let s =
            run_pair (w.Workloads.name ^ "/" ^ cname) (Workloads.program w) cfg
          in
          skipped := !skipped + s.Processor.skipped_cycles;
          ffwd := !ffwd + s.Processor.ffwd_iterations)
        configs)
    Workloads.all;
  (* Guard against a vacuous pass: the fast paths must actually fire
     somewhere in the kernel sweep, or the equalities above prove
     nothing. *)
  Alcotest.(check bool) "skip-ahead fired on some kernel" true (!skipped > 0);
  Alcotest.(check bool)
    "loop fast-forward fired on some kernel" true (!ffwd > 0)

let test_corpus () =
  List.iter
    (fun (pname, program) ->
      List.iter
        (fun (cname, cfg) ->
          ignore (run_pair (pname ^ "/" ^ cname) program cfg))
        configs)
    (Lazy.force corpus)

(* A constrained machine reaches the wheel-wrap, queue-overflow and
   revoke corners with different quiescent shapes than the default
   geometry. *)
let test_small_iq () =
  let cfg = Config.with_iq_size Config.reuse 16 in
  List.iter
    (fun w ->
      ignore (run_pair (w.Workloads.name ^ "/small-iq") (Workloads.program w) cfg))
    Workloads.all

(* Each fast path must also be safe alone: skip-ahead and fast-forward
   interact (a replay ends in a quiescent stretch and vice versa), so
   the single-flag variants pin down which path broke a future failure. *)
let test_single_flags () =
  List.iter
    (fun w ->
      let p = Workloads.program w in
      List.iter
        (fun (fname, f) ->
          let base = fast_off Config.reuse in
          let off = Processor.create base p in
          (match Processor.run off with
          | Processor.Halted -> ()
          | Processor.Cycle_limit ->
              Alcotest.failf "%s: hit cycle limit" w.Workloads.name);
          let on = Processor.create (f base) p in
          (match Processor.run on with
          | Processor.Halted -> ()
          | Processor.Cycle_limit ->
              Alcotest.failf "%s: hit cycle limit" w.Workloads.name);
          let name = w.Workloads.name ^ "/" ^ fname in
          let a_off = Processor.arch_state off
          and a_on = Processor.arch_state on in
          if not (Riq_interp.Machine.equal_arch a_off a_on) then
            Alcotest.failf "%s: arch state diverges\n%s" name
              (Riq_interp.Machine.diff_string a_off a_on);
          check_stats name (Processor.stats off) (Processor.stats on))
        [
          ("skip-only", fun c -> { c with Config.skip_ahead = true });
          ("ffwd-only", fun c -> { c with Config.loop_ffwd = true });
        ])
    Workloads.all

(* Pool programs of the benchmark (seed 2004) whose loops verified a
   steady-state template the replay cannot reproduce, because the
   replay makes every access hit: a load that missed the L1D in every
   observed period (1753, default config) and periods that charged the
   L2 (796, big-iq config). Fast-forward must decline to replay them. *)
let test_replay_declines_miss_templates () =
  List.iter
    (fun (config, j) ->
      let cfg, params =
        match Driver.config config with Ok c -> c | Error e -> Alcotest.fail e
      in
      match Prog.to_program (Gen.program ~params ~seed:(Gen.derive_seed 2004 j) ()) with
      | Error e -> Alcotest.fail e
      | Ok program -> ignore (run_pair (Printf.sprintf "pool %d/%s" j config) program cfg))
    [ ("default", 1753); ("big-iq", 796) ]

(* ---- exact cost counters ---- *)

(* Minor-heap words allocated by the reuse-on leg (create and run, fast
   paths on) per committed instruction, over the first corpus programs.
   Short programs make the fixed set-up cost visible: flat machine tables
   and a lazily filled fast-forward controller measured 16.4 here, the
   per-line record tables before them 56.9, and eagerly allocated
   controller vectors alone 19.6. The bound leaves ~10% headroom for
   compiler-version drift. *)
let minor_words_bound = 18.

let test_minor_words_per_insn () =
  let words = ref 0. and insns = ref 0 in
  List.iteri
    (fun i (_, program) ->
      if i < 8 then begin
        let w0 = Gc.minor_words () in
        let p = Processor.create (fast_on Config.reuse) program in
        ignore (Processor.run p);
        words := !words +. (Gc.minor_words () -. w0);
        insns := !insns + (Processor.stats p).Processor.committed
      end)
    (Lazy.force corpus);
  let per_insn = !words /. float_of_int !insns in
  if per_insn > minor_words_bound then
    Alcotest.failf "reuse-on leg allocates %.2f minor words per instruction (bound %.1f)"
      per_insn minor_words_bound

(* The fast-forward admission gate must not starve the loops where
   fast-forward pays: the aps, wss and tsf reuse cells of the paper's
   sweep. *)
let test_ffwd_fires_on_steady_kernels () =
  List.iter
    (fun name ->
      let program = Workloads.program (Workloads.find name) in
      List.iter
        (fun iq ->
          let p = Processor.create (fast_on (Config.with_iq_size Config.reuse iq)) program in
          ignore (Processor.run p);
          let it = (Processor.stats p).Processor.ffwd_iterations in
          if it <= 0 then Alcotest.failf "%s/IQ%d: loop fast-forward never fired" name iq)
        [ 32; 64 ])
    [ "aps"; "wss"; "tsf" ]

let suites =
  [
    ( "skipahead.differential",
      [
        Alcotest.test_case "kernels x 2 configs: fast off = fast on" `Slow
          test_kernels;
        Alcotest.test_case "fuzz corpus x 2 configs: fast off = fast on" `Slow
          test_corpus;
        Alcotest.test_case "small-iq kernels: fast off = fast on" `Slow
          test_small_iq;
        Alcotest.test_case "single-flag kernels: each path alone" `Slow
          test_single_flags;
        Alcotest.test_case "replay declines templates with misses" `Quick
          test_replay_declines_miss_templates;
      ] );
    ( "skipahead.cost",
      [
        Alcotest.test_case "minor words per instruction, reuse-on leg" `Quick
          test_minor_words_per_insn;
        Alcotest.test_case "fast-forward fires on aps/wss/tsf at IQ 32, 64" `Quick
          test_ffwd_fires_on_steady_kernels;
      ] );
  ]
