open Riq_util
open Riq_isa
open Riq_asm
open Riq_mem
open Riq_branch
open Riq_power
open Riq_ooo
open Riq_interp
open Riq_obs

(* The packed fast-path execution core. The pipeline structure is the
   seed core's (see [Slowpath], the locked reference copy the
   differential suite compares against), but every per-instruction
   property is pre-decoded once at [create] into the flat side tables of
   [Decoded], and the cycle loop's dynamic structures are preallocated
   flat arrays:

   - fetch queue and decode latch are rings of mutable records instead
     of [Queue.t]s (no cell allocation per instruction);
   - the writeback event set is a ring-indexed event wheel instead of a
     per-cycle [Hashtbl] of lists (no bucket/cons allocation, no hash);
   - load replays live in a swap-buffered FIFO of int arrays;
   - execute is a single dispatch on the dense opcode, reading
     pre-transformed immediates and absolute targets from the tables.

   Everything observable — architectural state, statistics counters, and
   the exact per-component order of power charges (floats accumulate, so
   charge order matters bit-for-bit) — is kept identical to the seed
   core; the differential suite asserts this on every corpus program. *)

(* Instruction fetched but not yet dispatched: one preallocated record
   per ring slot, fields overwritten in place. *)
type fetched = {
  mutable f_pc : int;
  mutable f_wi : int; (* word index into the side tables *)
  mutable f_pred_npc : int; (* -1: unknown target, fetch stalls until resolution *)
  mutable f_ras_ck : Predictor.checkpoint;
  mutable f_buffered : bool; (* classification decided at decode *)
}

type ring = { slots : fetched array; mutable head : int; mutable len : int }

let ring_create cap =
  {
    slots =
      Array.init cap (fun _ ->
          { f_pc = 0; f_wi = -1; f_pred_npc = 0; f_ras_ck = 0; f_buffered = false });
    head = 0;
    len = 0;
  }

let ring_cap r = Array.length r.slots
let ring_clear r = r.len <- 0

let ring_push r =
  let i = r.head + r.len in
  let i = if i >= Array.length r.slots then i - Array.length r.slots else i in
  r.len <- r.len + 1;
  r.slots.(i)

let ring_peek r = r.slots.(r.head)

let ring_pop r =
  r.head <- r.head + 1;
  if r.head = Array.length r.slots then r.head <- 0;
  r.len <- r.len - 1

(* Event wheel: writeback events indexed by [cycle land wheel_mask].
   The maximum schedule distance is bounded by the worst-case memory
   latency chain (TLB walk + L2 + DRAM bursts, well under 200 cycles),
   so a 256-slot wheel always has the target slot drained before any
   event can wrap onto it; [schedule] enforces the horizon. *)
let wheel_size = 256
let wheel_mask = wheel_size - 1
let ev_complete = 0
let ev_agen = 1

(* Initial per-slot capacity of the flat event wheel. *)
let ev_cap0 = 8

(* Why a buffering attempt was revoked, one constructor per revoke site.
   The static side (Riq_analysis.Bufferability) predicts these; keeping
   per-cause counters is what lets the oracle cross-check prediction
   against execution. *)
type revoke_cause =
  | Rv_inner_loop (* decode saw a second capturable backward transfer *)
  | Rv_left_loop (* decode left the window before promotion *)
  | Rv_overflow (* the issue queue filled while buffering *)
  | Rv_mispredict (* recovery from a mispredict older than the loop *)

let revoke_cause_to_string = function
  | Rv_inner_loop -> "inner-loop"
  | Rv_left_loop -> "left-loop"
  | Rv_overflow -> "overflow"
  | Rv_mispredict -> "mispredict"

(* Per-loop decision record, keyed by the loop-ending instruction's pc —
   the same key the detector and NBLT use. Queryable after a run to
   compare the dynamic decisions with the static bufferability pass. *)
type loop_decision = {
  ld_head : int;
  ld_tail : int;
  ld_span : int;
  mutable ld_detections : int; (* detector hits at the tail *)
  mutable ld_nblt_filtered : int; (* detections suppressed by the NBLT *)
  mutable ld_attempts : int; (* buffering attempts started *)
  mutable ld_revokes : int;
  mutable ld_rv_inner : int; (* ld_revokes split by cause *)
  mutable ld_rv_left : int;
  mutable ld_rv_overflow : int;
  mutable ld_rv_mispredict : int;
  mutable ld_nblt_registered : int; (* revokes that registered in the NBLT *)
  mutable ld_promotions : int; (* reached Code Reuse *)
  mutable ld_reuse_committed : int; (* committed instructions supplied by reuse *)
}

(* Ways of the steady-state decode cache: dispatch descriptors for the
   loop being buffered, installed when buffering starts and keyed by the
   loop tail — the same key the reuse IQ and the NBLT use. *)
let dc_ways = 16

(* ------------------------------------------------------------------ *)
(* Steady-state loop fast-forward (Config.loop_ffwd).                  *)
(*                                                                     *)
(* Once the machine is in Code Reuse, every commit of the loop-ending  *)
(* instruction is an iteration boundary. The controller observes       *)
(* [ffwd_verify_periods] consecutive periods (boundary to boundary):   *)
(* the machine state at each boundary must repeat exactly up to a      *)
(* uniform relocation (sequence numbers, wheel rotation, monotonic     *)
(* counters), and the per-cycle activity/occupancy/commit logs and the *)
(* memory access pattern (one common address stride for every memory   *)
(* op) must be bitwise identical period to period. Verified periods    *)
(* are then replayed analytically: per cycle, the logged activity      *)
(* vector is charged and the logged commits/occupancies drive the      *)
(* sampler, while a semantic machine executes the loop body in program  *)
(* order to produce the values, addresses and branch outcomes the       *)
(* relocated pipeline state needs at exit. Floats are never            *)
(* extrapolated — every replayed cycle performs the same [Account]     *)
(* additions the cycle-accurate path would, so energy accumulation is  *)
(* bit-identical. *)

type ivec = { mutable iv : int array; mutable ivn : int }
type fvec = { mutable fv : float array; mutable fvn : int }

(* Vectors start empty: most controllers never fill most of them, so
   storage is allocated on first push. *)
let iv_make () = { iv = [||]; ivn = 0 }
let iv_clear v = v.ivn <- 0

let iv_grow v =
  let b = Array.make (max 64 (2 * v.ivn)) 0 in
  Array.blit v.iv 0 b 0 v.ivn;
  v.iv <- b

(* Small enough to inline: snapshots push a few thousand words each. *)
let iv_push v x =
  if v.ivn = Array.length v.iv then iv_grow v;
  Array.unsafe_set v.iv v.ivn x;
  v.ivn <- v.ivn + 1

let iv_equal a b =
  a.ivn = b.ivn
  &&
  let ok = ref true in
  let i = ref 0 in
  while !ok && !i < a.ivn do
    if a.iv.(!i) <> b.iv.(!i) then ok := false;
    incr i
  done;
  !ok

let fv_make () = { fv = [||]; fvn = 0 }
let fv_clear v = v.fvn <- 0

let fv_append v src n =
  (if v.fvn + n > Array.length v.fv then begin
     let cap = ref (max 64 (2 * Array.length v.fv)) in
     while !cap < v.fvn + n do
       cap := 2 * !cap
     done;
     let b = Array.make !cap 0. in
     Array.blit v.fv 0 b 0 v.fvn;
     v.fv <- b
   end);
  Array.blit src 0 v.fv v.fvn n;
  v.fvn <- v.fvn + n

(* Controller modes: 0 = idle (waiting for the first boundary),
   4 = searching for the period, 1 = observing, 3 = dormant (too many
   verification failures for this reuse episode; reset on reuse exit).

   The period of the machine state is a whole number of loop iterations
   but not necessarily one: when the loop body length is not a multiple
   of the commit width, the commit phase rotates by a fixed amount per
   iteration and the pipeline state only repeats every few iterations
   (e.g. a 35-instruction body on a 4-wide machine repeats every 4
   iterations). The search mode keeps a short history of boundary
   snapshots and picks the smallest boundary distance at which the
   snapshot recurs; everything downstream then works in units of that
   super-period.

   Snapshots are dear (the whole ROB/IQ/LSQ/wheel) and most loops never
   settle, so the search pays as it goes: an admission gate first
   watches a one-word signature of each boundary — the (cycle, commit,
   sequence) deltas since the previous one and the queue occupancies —
   and a snapshot is taken only while, for some k <= [ff_hist_len],
   each of the last k + 1 signatures equals the one k boundaries before
   it. A machine-state period of k boundaries repeats those words with
   period k, so the gate never shuts out a loop the search could lock
   onto; it only delays the search by about one period. *)
type ffwd = {
  ff_k : int; (* periods to verify before replaying *)
  mutable ff_mode : int;
  mutable ff_fails : int;
  mutable ff_super : int; (* boundaries per machine-state period *)
  mutable ff_bcount : int; (* boundaries since the last super-boundary *)
  ff_hist : ivec array; (* search mode: recent boundary snapshots *)
  ff_hist_pred : int array;
  mutable ff_hist_n : int; (* consecutive boundaries in [ff_hist] *)
  mutable ff_snaps : int; (* snapshots taken by this search *)
  (* Admission gate: ring of boundary signatures, and per candidate
     period k (index 1..ff_hist_len) the number of consecutive
     boundaries whose signature equals the one k boundaries earlier. *)
  ff_sig : int array;
  ff_sig_run : int array;
  mutable ff_sig_n : int; (* signatures recorded since the gate reset *)
  mutable ff_gate_open : bool;
  mutable ff_b_now : int; (* previous boundary's cycle, commits, seq *)
  mutable ff_b_com : int;
  mutable ff_b_seq : int;
  (* Cumulative snapshot work spent per loop (keyed by head/tail)
     without a successful replay. A loop that keeps rejecting — or whose
     episodes are too short to ever reach a replay — would otherwise
     re-pay the snapshot-per-boundary search on every one of its (often
     thousands of) episodes, turning the fast path into a slowdown. Once
     a loop exhausts the budget it stays dormant; a successful replay
     resets its account. *)
  ff_work : (int, int ref) Hashtbl.t;
  mutable ff_cur_work : int ref; (* the active loop's account *)
  mutable ff_boundary : bool; (* set by commit, consumed by [run] *)
  mutable ff_poison : bool; (* irregularity inside the current period *)
  mutable ff_periods : int; (* boundaries survived since observation start *)
  mutable ff_cycle_start : int;
  mutable ff_seq_start : int;
  mutable ff_last_committed : int;
  (* Per-cycle logs: activity vector, (iq, rob, lsq) occupancy, commit
     count. The reference period is the log every later period must
     reproduce bitwise. *)
  mutable ff_ref_act : fvec;
  mutable ff_cur_act : fvec;
  mutable ff_ref_occ : ivec;
  mutable ff_cur_occ : ivec;
  mutable ff_ref_com : ivec;
  mutable ff_cur_com : ivec;
  (* Memory log, 5 ints per op: kind (0 load access / 1 store commit /
     2 forward), cycle offset, seq offset, latency, address. Everything
     but the address must repeat; addresses advance by one common
     stride. *)
  mutable ff_ref_mem : ivec;
  mutable ff_cur_mem : ivec;
  (* Dispatch log, 3 ints per op: wi, pc, pred_npc — the loop body in
     program order, the replay lookahead's template. *)
  mutable ff_ref_dsp : ivec;
  mutable ff_cur_dsp : ivec;
  (* Boundary snapshots: relocation-invariant state (must repeat
     exactly) and monotonic counters (per-period delta must repeat). *)
  mutable ff_rigid_prev : ivec;
  mutable ff_rigid_cur : ivec;
  ff_lids : int array; (* snapshot scratch, one per LSQ entry *)
  ff_lrank : int array;
  mutable ff_pred_prev : int;
  (* Affine snapshots, swap-buffered, and the verified per-period delta;
     all three share one layout ([ff_affine_capture]). [ff_loops] is the
     loop log sorted by tail, the layout's per-loop block. *)
  mutable ff_loops : loop_decision array;
  mutable ff_aff_prev : int array;
  mutable ff_aff_cur : int array;
  mutable ff_adiff : int array;
  mutable ff_mem_prev : int array; (* last period's address column *)
  mutable ff_mem_stride : int array; (* [||] until set at period 3 *)
}

(* Longest machine-state period the search can find, and how many
   boundaries it may examine before concluding the loop has none. *)
let ff_hist_len = 32
let ff_search_budget = 128
let ff_sig_mask = 63 (* signature ring: > ff_hist_len entries *)

let ff_create ~k ~lsq =
  {
    ff_k = k;
    ff_mode = 0;
    ff_fails = 0;
    ff_super = 1;
    ff_bcount = 0;
    ff_hist = Array.init ff_hist_len (fun _ -> iv_make ());
    ff_hist_pred = Array.make ff_hist_len 0;
    ff_hist_n = 0;
    ff_snaps = 0;
    ff_sig = Array.make (ff_sig_mask + 1) 0;
    ff_sig_run = Array.make (ff_hist_len + 1) 0;
    ff_sig_n = 0;
    ff_gate_open = false;
    ff_b_now = 0;
    ff_b_com = 0;
    ff_b_seq = 0;
    ff_work = Hashtbl.create 16;
    ff_cur_work = ref 0;
    ff_boundary = false;
    ff_poison = false;
    ff_periods = 0;
    ff_cycle_start = 0;
    ff_seq_start = 0;
    ff_last_committed = 0;
    ff_ref_act = fv_make ();
    ff_cur_act = fv_make ();
    ff_ref_occ = iv_make ();
    ff_cur_occ = iv_make ();
    ff_ref_com = iv_make ();
    ff_cur_com = iv_make ();
    ff_ref_mem = iv_make ();
    ff_cur_mem = iv_make ();
    ff_ref_dsp = iv_make ();
    ff_cur_dsp = iv_make ();
    ff_rigid_prev = iv_make ();
    ff_rigid_cur = iv_make ();
    ff_lids = Array.make lsq 0;
    ff_lrank = Array.make lsq 0;
    ff_pred_prev = 0;
    ff_loops = [||];
    ff_aff_prev = [||];
    ff_aff_cur = [||];
    ff_adiff = [||];
    ff_mem_prev = [||];
    ff_mem_stride = [||];
  }

(* Verification failures tolerated per reuse episode before going
   dormant (restarting observation forever on an irregular loop would
   burn more time than it could ever save). *)
let ff_max_fails = 16

type t = {
  cfg : Config.t;
  program : Program.t;
  dec : Decoded.t; (* pre-decoded side tables, built once *)
  memory : Store.t;
  hier : Hierarchy.t;
  pred : Predictor.t;
  rob : Rob.t;
  iq : Iq.t;
  lsq : Lsq.t;
  fu : Fu.t;
  acct : Account.t;
  reuse : Reuse_state.t;
  nblt : Nblt.t;
  lc : Loopcache.t option; (* related-work baseline, Config.loop_cache *)
  arch_i : int array;
  arch_f : float array;
  map : int array; (* logical register -> ROB index, -1 = architectural *)
  mutable fetch_pc : int; (* -1: blocked until redirect *)
  mutable fetch_stall_until : int;
  fetch_q : ring;
  decode_latch : ring;
  mutable now : int;
  mutable seq_ctr : int;
  (* Event wheel, one flat array per field: slot [sl]'s events sit at
     [sl * ev_cap] onwards, [ev_n.(sl)] of them. All slots grow together
     (rarely: [ev_cap] starts above a typical cycle's writebacks). *)
  ev_n : int array;
  mutable ev_cap : int;
  mutable ev_seq : int array;
  mutable ev_rob : int array;
  mutable ev_kind : int array;
  mutable ev_addr : int array;
  mutable ev_di : int array;
  mutable ev_dtag : int array;
  mutable ev_df : float array;
  mutable ev_ord : int array; (* drain-order scratch *)
  (* Replay FIFO: arrival-ordered parallel arrays, swap-buffered. *)
  mutable rp_n : int;
  mutable rp_seq : int array;
  mutable rp_rob : int array;
  mutable rp_addr : int array;
  mutable rp2_seq : int array;
  mutable rp2_rob : int array;
  mutable rp2_addr : int array;
  (* Decode cache: per-way loop window [dc_head..dc_tail] (word indices)
     and the dispatch descriptors covering it. *)
  dc_head : int array;
  dc_tail : int array;
  dc_desc : int array array;
  mutable dc_hits : int;
  mutable dc_installs : int;
  (* Issue-select scratch, [issue_width] wide, reset every cycle. *)
  issue_cand : Iq.slot array;
  issue_cand_seq : int array;
  (* Reuse-attribution memo: wi -> smallest logged window containing it
     (None = outside every window); invalidated when a window is logged. *)
  attr_memo : loop_decision option option array;
  mutable halted : bool;
  mutable halt_pc : int;
  mutable committed : int;
  mutable gated_cycles : int;
  mutable n_branches : int;
  mutable n_mispredicts : int;
  mutable n_loads : int;
  mutable n_stores : int;
  mutable n_reuse_dispatch : int;
  mutable n_reuse_commit : int;
  loop_log : (int, loop_decision) Hashtbl.t; (* keyed by tail pc *)
  mutable cur_reuse_tail : int; (* tail of the last promoted loop, -1 = none *)
  (* Simulator-only fast paths (no timing/power effect). *)
  ff : ffwd option; (* loop fast-forward controller, None = disabled *)
  mutable n_skipped : int; (* cycles covered by event skip-ahead *)
  mutable n_ffwd_iters : int; (* loop iterations replayed analytically *)
  (* Observability. The tracer defaults to the null sink (one dead branch
     per emission site); the sampler is absent unless attached. *)
  tracer : Tracer.t;
  sampler : Sampler.t option;
  counter_stride : int; (* cadence of the tracer's counter tracks *)
  mutable samp_last_cycle : int;
  mutable samp_last_committed : int;
  samp_last_energy : float array; (* per Component.group, at the last sample *)
}

type stop = Halted | Cycle_limit

(* Sample channels, in recording order; callers attaching a sampler must
   create it with exactly these (see [sample_channels] in the interface). *)
let sample_channels =
  [
    "ipc"; "iq"; "rob"; "lsq"; "power-icache"; "power-bpred"; "power-iq";
    "power-overhead"; "power-other"; "power-total";
  ]

let sample_groups =
  [| Component.G_icache; G_bpred; G_iq; G_overhead; G_other |]

let create ?tracer ?sampler cfg program =
  Config.validate cfg;
  let tracer = match tracer with Some tr -> tr | None -> Tracer.null () in
  if Tracer.enabled tracer then begin
    Tracer.set_thread_name tracer ~tid:0 "reuse-engine";
    Tracer.set_thread_name tracer ~tid:1 "pipeline-events"
  end;
  (match sampler with
  | Some s when Sampler.channels s <> sample_channels ->
      invalid_arg "Processor.create: sampler channels must be Processor.sample_channels"
  | Some _ | None -> ());
  let memory = Store.create () in
  Program.load program ~write_word:(Store.write_word memory);
  let arch_i = Array.make 32 0 in
  arch_i.(Reg.sp) <- Machine.default_sp;
  let iq = Iq.create cfg.Config.iq_entries in
  (* Fast-forward needs reuse periods to observe, no competing loop
     cache rewriting the front end, and no tracer (per-cycle trace
     events cannot be replayed in bulk). *)
  let ff =
    if
      cfg.Config.loop_ffwd && cfg.Config.reuse_enabled
      && cfg.Config.loop_cache_entries = 0
      && not (Tracer.enabled tracer)
    then Some (ff_create ~k:cfg.Config.ffwd_verify_periods ~lsq:cfg.Config.lsq_entries)
    else None
  in
  {
    cfg;
    program;
    dec = Decoded.of_program program;
    memory;
    hier = Hierarchy.create cfg.Config.mem;
    pred = Predictor.create cfg.Config.bpred;
    rob = Rob.create cfg.Config.rob_entries;
    iq;
    lsq = Lsq.create cfg.Config.lsq_entries;
    fu =
      Fu.create ~n_ialu:cfg.Config.n_ialu ~n_imult:cfg.Config.n_imult
        ~n_fpalu:cfg.Config.n_fpalu ~n_fpmult:cfg.Config.n_fpmult
        ~n_memport:cfg.Config.n_memport;
    acct = Account.create (Model.create (Config.power_geometry cfg));
    reuse = Reuse_state.create ~tracer ();
    nblt = Nblt.create ~tracer cfg.Config.nblt_entries;
    lc =
      (if cfg.Config.loop_cache_entries > 0 then
         Some (Loopcache.create cfg.Config.loop_cache_entries)
       else None);
    arch_i;
    arch_f = Array.make 32 0.;
    map = Array.make Reg.count (-1);
    fetch_pc = program.Program.entry;
    fetch_stall_until = 0;
    fetch_q = ring_create cfg.Config.fetch_queue;
    decode_latch = ring_create cfg.Config.decode_width;
    now = 0;
    seq_ctr = 0;
    ev_n = Array.make wheel_size 0;
    ev_cap = ev_cap0;
    ev_seq = Array.make (wheel_size * ev_cap0) 0;
    ev_rob = Array.make (wheel_size * ev_cap0) 0;
    ev_kind = Array.make (wheel_size * ev_cap0) 0;
    ev_addr = Array.make (wheel_size * ev_cap0) 0;
    ev_di = Array.make (wheel_size * ev_cap0) 0;
    ev_dtag = Array.make (wheel_size * ev_cap0) 0;
    ev_df = Array.make (wheel_size * ev_cap0) 0.;
    ev_ord = Array.make 16 0;
    rp_n = 0;
    rp_seq = Array.make 16 0;
    rp_rob = Array.make 16 0;
    rp_addr = Array.make 16 0;
    rp2_seq = Array.make 16 0;
    rp2_rob = Array.make 16 0;
    rp2_addr = Array.make 16 0;
    dc_head = Array.make dc_ways (-1);
    dc_tail = Array.make dc_ways (-1);
    dc_desc = Array.init dc_ways (fun _ -> [||]);
    dc_hits = 0;
    dc_installs = 0;
    issue_cand = Array.make cfg.Config.issue_width (Iq.slots iq).(0);
    issue_cand_seq = Array.make cfg.Config.issue_width max_int;
    attr_memo = Array.make (max 1 (Array.length program.Program.code)) None;
    halted = false;
    halt_pc = 0;
    committed = 0;
    gated_cycles = 0;
    n_branches = 0;
    n_mispredicts = 0;
    n_loads = 0;
    n_stores = 0;
    n_reuse_dispatch = 0;
    n_reuse_commit = 0;
    loop_log = Hashtbl.create 16;
    cur_reuse_tail = -1;
    ff;
    n_skipped = 0;
    n_ffwd_iters = 0;
    tracer;
    sampler;
    counter_stride =
      (match sampler with Some s -> Sampler.base_stride s | None -> 64);
    samp_last_cycle = 0;
    samp_last_committed = 0;
    samp_last_energy = Array.make (Array.length sample_groups) 0.;
  }

let loop_record t ~head ~tail =
  match Hashtbl.find_opt t.loop_log tail with
  | Some r -> r
  | None ->
      let r =
        {
          ld_head = head;
          ld_tail = tail;
          ld_span = ((tail - head) / 4) + 1;
          ld_detections = 0;
          ld_nblt_filtered = 0;
          ld_attempts = 0;
          ld_revokes = 0;
          ld_rv_inner = 0;
          ld_rv_left = 0;
          ld_rv_overflow = 0;
          ld_rv_mispredict = 0;
          ld_nblt_registered = 0;
          ld_promotions = 0;
          ld_reuse_committed = 0;
        }
      in
      Hashtbl.replace t.loop_log tail r;
      Array.fill t.attr_memo 0 (Array.length t.attr_memo) None;
      r

let charge t c n = Account.add t.acct c n
let charge1 t c = Account.add t.acct c 1.

(* Double every slot's capacity. A drain in progress keeps reading the
   arrays it captured: they still hold its slot, and only the new arrays
   are written from here on. *)
let ev_grow t =
  let cap = t.ev_cap in
  let grow a =
    let b = Array.make (2 * Array.length a) a.(0) in
    for sl = 0 to wheel_size - 1 do
      Array.blit a (sl * cap) b (sl * 2 * cap) cap
    done;
    b
  in
  t.ev_seq <- grow t.ev_seq;
  t.ev_rob <- grow t.ev_rob;
  t.ev_kind <- grow t.ev_kind;
  t.ev_addr <- grow t.ev_addr;
  t.ev_di <- grow t.ev_di;
  t.ev_dtag <- grow t.ev_dtag;
  t.ev_df <- grow t.ev_df;
  t.ev_cap <- 2 * cap

let schedule t ~cycle ~seq ~rob ~kind ~addr ~di ~df ~dtag =
  if cycle <= t.now || cycle - t.now >= wheel_size then
    failwith "Processor.schedule: event outside the wheel horizon";
  let sl = cycle land wheel_mask in
  let n = t.ev_n.(sl) in
  if n = t.ev_cap then ev_grow t;
  let i = (sl * t.ev_cap) + n in
  t.ev_seq.(i) <- seq;
  t.ev_rob.(i) <- rob;
  t.ev_kind.(i) <- kind;
  t.ev_addr.(i) <- addr;
  t.ev_di.(i) <- di;
  t.ev_dtag.(i) <- dtag;
  t.ev_df.(i) <- df;
  t.ev_n.(sl) <- n + 1

let schedule_complete t ~cycle ~seq ~rob =
  schedule t ~cycle ~seq ~rob ~kind:ev_complete ~addr:0 ~di:0 ~df:0. ~dtag:(-1)

let next_seq t =
  t.seq_ctr <- t.seq_ctr + 1;
  t.seq_ctr

let push_replay t ~seq ~rob ~addr =
  let n = t.rp_n in
  if n = Array.length t.rp_seq then begin
    let grow a =
      let b = Array.make (2 * n) 0 in
      Array.blit a 0 b 0 n;
      b
    in
    t.rp_seq <- grow t.rp_seq;
    t.rp_rob <- grow t.rp_rob;
    t.rp_addr <- grow t.rp_addr
  end;
  t.rp_seq.(n) <- seq;
  t.rp_rob.(n) <- rob;
  t.rp_addr.(n) <- addr;
  t.rp_n <- n + 1

(* Fast-forward observation hooks. All are no-ops unless the controller
   is in observing mode; the [match] is allocation-free and the hooks
   sit on paths that are already per-event, not per-cycle. *)

let ff_note_mem t ~kind ~seq ~addr ~lat =
  match t.ff with
  | Some f when f.ff_mode = 1 ->
      iv_push f.ff_cur_mem kind;
      iv_push f.ff_cur_mem (t.now - f.ff_cycle_start);
      iv_push f.ff_cur_mem (seq - f.ff_seq_start);
      iv_push f.ff_cur_mem lat;
      iv_push f.ff_cur_mem addr
  | Some _ | None -> ()

let ff_note_dispatch t ~wi ~pc ~pred_npc =
  match t.ff with
  | Some f when f.ff_mode = 1 ->
      iv_push f.ff_cur_dsp wi;
      iv_push f.ff_cur_dsp pc;
      iv_push f.ff_cur_dsp pred_npc
  | Some _ | None -> ()

(* An event the replay cannot reproduce (e.g. a wrong-path load with a
   garbage address): the current observation attempt is abandoned at the
   next boundary. *)
let ff_poison t =
  match t.ff with
  | Some f when f.ff_mode = 1 -> f.ff_poison <- true
  | Some _ | None -> ()

let ff_reset t =
  match t.ff with
  | Some f ->
      f.ff_mode <- 0;
      f.ff_fails <- 0;
      f.ff_super <- 1;
      f.ff_bcount <- 0;
      f.ff_hist_n <- 0;
      f.ff_snaps <- 0;
      f.ff_boundary <- false;
      f.ff_poison <- false;
      f.ff_periods <- 0
  | None -> ()

(* Memory hierarchy wrappers that charge the power account, including the
   L2 accesses triggered by L1 misses. *)
let fetch_latency t addr =
  let l1_before = Cache.accesses (Hierarchy.l1i t.hier) in
  let l2_before = Cache.accesses (Hierarchy.l2 t.hier) in
  let lat = Hierarchy.fetch_at t.hier ~now:t.now ~addr in
  (* With a filter cache, an L0 hit never reaches the L1I; charging by
     access deltas attributes the energy to the structure actually used. *)
  (match Hierarchy.l0i t.hier with
  | Some _ -> charge1 t Component.L0cache
  | None -> ());
  let d1 = Cache.accesses (Hierarchy.l1i t.hier) - l1_before in
  if d1 > 0 then charge t Component.Icache (float_of_int d1);
  charge1 t Component.Itlb;
  let dl2 = Cache.accesses (Hierarchy.l2 t.hier) - l2_before in
  if dl2 > 0 then charge t Component.L2 (float_of_int dl2);
  lat

let data_latency t ~addr ~write =
  let l2_before = Cache.accesses (Hierarchy.l2 t.hier) in
  let lat = Hierarchy.data_at t.hier ~now:t.now ~addr ~write in
  charge1 t Component.Dcache;
  charge1 t Component.Dtlb;
  let dl2 = Cache.accesses (Hierarchy.l2 t.hier) - l2_before in
  if dl2 > 0 then charge t Component.L2 (float_of_int dl2);
  lat

(* Resolve one source operand through the map table directly into the
   slot's src fields; registers are plain ints ([0..31] integer file,
   [32..63] FP file) so no tuple or option is allocated. *)
let read_src1 t (s : Iq.slot) r =
  if r < 0 then begin
    s.Iq.src1_tag <- -1;
    s.Iq.src1_i <- 0;
    s.Iq.src1_f <- 0.
  end
  else begin
    charge1 t Component.Regfile;
    let idx = t.map.(r) in
    if idx = -1 then
      if r >= 32 then begin
        s.Iq.src1_tag <- -1;
        s.Iq.src1_i <- 0;
        s.Iq.src1_f <- t.arch_f.(r - 32)
      end
      else begin
        s.Iq.src1_tag <- -1;
        s.Iq.src1_i <- t.arch_i.(r);
        s.Iq.src1_f <- 0.
      end
    else begin
      let e = Rob.entry t.rob idx in
      if e.Rob.completed then begin
        s.Iq.src1_tag <- -1;
        s.Iq.src1_i <- e.Rob.value_i;
        s.Iq.src1_f <- e.Rob.value_f
      end
      else begin
        s.Iq.src1_tag <- idx;
        s.Iq.src1_i <- 0;
        s.Iq.src1_f <- 0.
      end
    end
  end

let read_src2 t (s : Iq.slot) r =
  if r < 0 then begin
    s.Iq.src2_tag <- -1;
    s.Iq.src2_i <- 0;
    s.Iq.src2_f <- 0.
  end
  else begin
    charge1 t Component.Regfile;
    let idx = t.map.(r) in
    if idx = -1 then
      if r >= 32 then begin
        s.Iq.src2_tag <- -1;
        s.Iq.src2_i <- 0;
        s.Iq.src2_f <- t.arch_f.(r - 32)
      end
      else begin
        s.Iq.src2_tag <- -1;
        s.Iq.src2_i <- t.arch_i.(r);
        s.Iq.src2_f <- 0.
      end
    else begin
      let e = Rob.entry t.rob idx in
      if e.Rob.completed then begin
        s.Iq.src2_tag <- -1;
        s.Iq.src2_i <- e.Rob.value_i;
        s.Iq.src2_f <- e.Rob.value_f
      end
      else begin
        s.Iq.src2_tag <- idx;
        s.Iq.src2_i <- 0;
        s.Iq.src2_f <- 0.
      end
    end
  end

(* Operation groups of the dense opcode space, for the execute dispatch. *)
let alu_ops = [| Insn.Add; Sub; And; Or; Xor; Nor; Slt; Sltu |] (* 0..7 *)
let alui_ops = [| Insn.Add; And; Or; Xor; Slt; Sltu |] (* 8..13 *)
let shift_ops = [| Insn.Sll; Srl; Sra |] (* 14..16 imm, 17..19 variable *)
let fpu_ops = [| Insn.Fadd; Fsub; Fmul; Fdiv; Fsqrt; Fneg; Fabs; Fmov |] (* 23..30 *)
let fcmp_ops = [| Insn.Feq; Flt; Fle |] (* 31..33 *)
let br_conds = [| Insn.Beq; Bne; Blez; Bgtz; Bltz; Bgez |] (* 46..51 *)

(* Execute a non-memory instruction straight into its ROB entry: one
   dispatch on the dense opcode, immediates and branch/jump targets read
   pre-transformed from the side tables. Memory operations never reach
   this (they go through address generation); 57/58 (nop/halt) keep the
   defaults. *)
let execute_into t (e : Rob.entry) ~wi ~pc ~s1i ~s1f ~s2i ~s2f =
  let d = t.dec in
  let next = pc + 4 in
  e.Rob.value_i <- 0;
  e.Rob.value_f <- 0.;
  e.Rob.taken <- false;
  e.Rob.actual_npc <- next;
  let c = d.Decoded.exe.(wi) in
  if c < 8 then e.Rob.value_i <- Semantics.alu alu_ops.(c) s1i s2i
  else if c < 14 then
    e.Rob.value_i <- Semantics.alu alui_ops.(c - 8) s1i d.Decoded.imm.(wi)
  else if c < 17 then
    e.Rob.value_i <- Semantics.shift shift_ops.(c - 14) s1i d.Decoded.imm.(wi)
  else if c < 20 then
    e.Rob.value_i <- Semantics.shift shift_ops.(c - 17) s1i s2i
  else if c = 20 then e.Rob.value_i <- d.Decoded.imm.(wi) (* lui, pre-shifted *)
  else if c = 21 then e.Rob.value_i <- Semantics.mul s1i s2i
  else if c = 22 then e.Rob.value_i <- Semantics.div s1i s2i
  else if c < 31 then e.Rob.value_f <- Semantics.fpu fpu_ops.(c - 23) s1f s2f
  else if c < 34 then e.Rob.value_i <- Semantics.fcmp fcmp_ops.(c - 31) s1f s2f
  else if c = 34 then e.Rob.value_f <- Semantics.cvt_s_w s1i
  else if c = 35 then e.Rob.value_i <- Semantics.cvt_w_s s1f
  else if c >= 46 then
    if c <= 51 then begin
      let taken = Semantics.branch_taken br_conds.(c - 46) s1i s2i in
      e.Rob.taken <- taken;
      if taken then e.Rob.actual_npc <- d.Decoded.target.(wi)
    end
    else if c = 52 then begin
      e.Rob.taken <- true;
      e.Rob.actual_npc <- d.Decoded.target.(wi)
    end
    else if c = 53 then begin
      e.Rob.value_i <- next;
      e.Rob.taken <- true;
      e.Rob.actual_npc <- d.Decoded.target.(wi)
    end
    else if c <= 55 then begin
      e.Rob.taken <- true;
      e.Rob.actual_npc <- s1i
    end
    else if c = 56 then begin
      e.Rob.value_i <- next;
      e.Rob.taken <- true;
      e.Rob.actual_npc <- s1i
    end

(* The integer value a load produces, per the side tables' extension
   code: extract and extend the low bits per width and signedness. *)
let load_from_reg ext raw =
  if ext = Decoded.ext_word then Bits.of_i32 raw
  else if ext = Decoded.ext_s8 then Bits.sign_extend raw ~width:8
  else if ext = Decoded.ext_u8 then raw land 0xFF
  else if ext = Decoded.ext_s16 then Bits.sign_extend raw ~width:16
  else raw land 0xFFFF

let load_from_memory t ext addr =
  if ext = Decoded.ext_word then Bits.of_i32 (Store.read_word t.memory addr)
  else if ext = Decoded.ext_s8 then Bits.sign_extend (Store.read_byte t.memory addr) ~width:8
  else if ext = Decoded.ext_u8 then Store.read_byte t.memory addr
  else if ext = Decoded.ext_s16 then Bits.sign_extend (Store.read_half t.memory addr) ~width:16
  else Store.read_half t.memory addr

(* ------------------------------------------------------------------ *)
(* Misprediction recovery and reuse-engine state transitions.          *)
(* ------------------------------------------------------------------ *)

let rebuild_map t =
  Array.fill t.map 0 (Array.length t.map) (-1);
  Rob.iter_oldest_first t.rob (fun idx e ->
      if e.Rob.dest >= 0 then t.map.(e.Rob.dest) <- idx)

let flush_front_end t =
  ring_clear t.fetch_q;
  ring_clear t.decode_latch

let revoke_buffering t ~register_nblt ~cause =
  let r =
    loop_record t ~head:t.reuse.Reuse_state.head ~tail:t.reuse.Reuse_state.tail
  in
  r.ld_revokes <- r.ld_revokes + 1;
  (match cause with
  | Rv_inner_loop -> r.ld_rv_inner <- r.ld_rv_inner + 1
  | Rv_left_loop -> r.ld_rv_left <- r.ld_rv_left + 1
  | Rv_overflow -> r.ld_rv_overflow <- r.ld_rv_overflow + 1
  | Rv_mispredict -> r.ld_rv_mispredict <- r.ld_rv_mispredict + 1);
  if Tracer.enabled t.tracer then
    Tracer.instant t.tracer ~now:t.now
      ~args:
        [
          ("head", Tracer.Int t.reuse.Reuse_state.head);
          ("tail", Tracer.Int t.reuse.Reuse_state.tail);
          ("cause", Tracer.Str (revoke_cause_to_string cause));
          ("registered_nblt", Tracer.Int (if register_nblt then 1 else 0));
        ]
      ~cat:"reuse" "revoke";
  if register_nblt then begin
    r.ld_nblt_registered <- r.ld_nblt_registered + 1;
    charge1 t Component.Nblt;
    Nblt.insert ~now:t.now t.nblt t.reuse.Reuse_state.tail
  end;
  Iq.clear_classification t.iq;
  Reuse_state.revoke ~now:t.now t.reuse

let exit_reuse t =
  Iq.clear_classification t.iq;
  Iq.set_reuse_ptr t.iq 0;
  ff_reset t;
  Reuse_state.exit_reuse ~now:t.now t.reuse

(* Conventional branch-misprediction recovery (Section 2.5), plus the
   revoke / reuse-exit that accompanies it in the buffering states. *)
let recover t (e : Rob.entry) =
  let seq = e.Rob.seq in
  if Tracer.enabled t.tracer then
    Tracer.instant t.tracer ~now:t.now
      ~args:[ ("pc", Tracer.Int e.Rob.pc); ("redirect", Tracer.Int e.Rob.actual_npc) ]
      ~cat:"pipeline" "pipeline-flush";
  Rob.squash_after t.rob ~seq ~f:(fun _ _ -> ());
  Lsq.squash_after t.lsq ~seq;
  Iq.squash_after t.iq ~seq;
  rebuild_map t;
  Predictor.restore t.pred e.Rob.ras_ck;
  flush_front_end t;
  t.fetch_pc <- e.Rob.actual_npc;
  t.fetch_stall_until <- t.now + 1;
  (* Drop replays younger than the redirect, keeping arrival order. *)
  let w = ref 0 in
  for i = 0 to t.rp_n - 1 do
    if t.rp_seq.(i) <= seq then begin
      t.rp_seq.(!w) <- t.rp_seq.(i);
      t.rp_rob.(!w) <- t.rp_rob.(i);
      t.rp_addr.(!w) <- t.rp_addr.(i);
      incr w
    end
  done;
  t.rp_n <- !w;
  Option.iter Loopcache.reset t.lc;
  match t.reuse.Reuse_state.state with
  | Reuse_state.Normal -> ()
  | Reuse_state.Buffering ->
      (* A wrong path inside the loop (including the loop exit) makes the
         loop non-bufferable; a mispredict older than the loop is a plain
         revoke. *)
      let in_loop = Reuse_state.in_loop t.reuse ~pc:e.Rob.pc in
      revoke_buffering t ~register_nblt:in_loop
        ~cause:(if in_loop then Rv_left_loop else Rv_mispredict)
  | Reuse_state.Reusing -> exit_reuse t

(* ------------------------------------------------------------------ *)
(* Commit stage.                                                       *)
(* ------------------------------------------------------------------ *)

let commit_one t (e : Rob.entry) =
  charge1 t Component.Rob;
  (match e.Rob.dest with
  | -1 -> ()
  | d ->
      charge1 t Component.Regfile;
      if d >= 32 then t.arch_f.(d - 32) <- e.Rob.value_f
      else t.arch_i.(d) <- e.Rob.value_i;
      let head_idx = Rob.head t.rob in
      if t.map.(d) = head_idx then t.map.(d) <- -1);
  if e.Rob.lsq_idx >= 0 then begin
    let le = Lsq.entry t.lsq e.Rob.lsq_idx in
    assert (Lsq.head_is t.lsq e.Rob.lsq_idx);
    if e.Rob.is_store then begin
      t.n_stores <- t.n_stores + 1;
      charge1 t Component.Lsq;
      let wlat = data_latency t ~addr:le.Lsq.addr ~write:true in
      ff_note_mem t ~kind:1 ~seq:e.Rob.seq ~addr:le.Lsq.addr ~lat:wlat;
      if le.Lsq.is_fp then Store.write_float t.memory le.Lsq.addr le.Lsq.data_f
      else if le.Lsq.width = 1 then Store.write_byte t.memory le.Lsq.addr le.Lsq.data_i
      else if le.Lsq.width = 2 then Store.write_half t.memory le.Lsq.addr le.Lsq.data_i
      else Store.write_word t.memory le.Lsq.addr (Bits.to_u32 le.Lsq.data_i)
    end
    else t.n_loads <- t.n_loads + 1;
    Lsq.pop_head t.lsq
  end;
  (match t.dec.Decoded.kind.(e.Rob.wi) with
  | Insn.K_halt ->
      t.halted <- true;
      t.halt_pc <- e.Rob.pc;
      (* End-of-run drain: everything still in flight is younger than the
         halt and will never execute, so empty the queues (no power
         charges) — [occupancy] reads (0, 0, 0) once [run] returns
         [Halted]. The halt itself is still at the ROB head; the normal
         [pop_head] below removes it. *)
      Rob.squash_after t.rob ~seq:e.Rob.seq ~f:(fun _ _ -> ());
      Lsq.squash_after t.lsq ~seq:e.Rob.seq;
      Iq.clear t.iq;
      flush_front_end t;
      Array.fill t.ev_n 0 wheel_size 0;
      t.rp_n <- 0;
      if Tracer.enabled t.tracer then
        Tracer.instant t.tracer ~now:t.now
          ~args:[ ("pc", Tracer.Int e.Rob.pc) ]
          ~cat:"pipeline" "halted"
  | K_branch | K_jump | K_call | K_return | K_ijump | K_int | K_fp | K_load
  | K_store | K_nop ->
      ());
  if e.Rob.from_reuse then begin
    t.n_reuse_commit <- t.n_reuse_commit + 1;
    (* Attribute to the smallest logged window containing the pc; callee
       instructions (outside every window) go to the loop being reused.
       Memoized per word index — reuse commits the same few pcs millions
       of times and the window set changes only when a loop is first
       logged (which clears the memo). *)
    let wi = e.Rob.wi in
    let best =
      match t.attr_memo.(wi) with
      | Some b -> b
      | None ->
          let best = ref None in
          Hashtbl.iter
            (fun _ r ->
              if e.Rob.pc >= r.ld_head && e.Rob.pc <= r.ld_tail then
                match !best with
                | Some b when b.ld_span <= r.ld_span -> ()
                | _ -> best := Some r)
            t.loop_log;
          t.attr_memo.(wi) <- Some !best;
          !best
    in
    (match best with
    | Some r -> r.ld_reuse_committed <- r.ld_reuse_committed + 1
    | None -> (
        match Hashtbl.find_opt t.loop_log t.cur_reuse_tail with
        | Some r -> r.ld_reuse_committed <- r.ld_reuse_committed + 1
        | None -> ()));
    (* Iteration boundary for the fast-forward controller: the loop-ending
       instruction of the reused loop committed this cycle. *)
    match t.ff with
    | Some f
      when f.ff_mode <> 3
           && e.Rob.pc = t.reuse.Reuse_state.tail
           && t.reuse.Reuse_state.state = Reuse_state.Reusing ->
        f.ff_boundary <- true
    | Some _ | None -> ()
  end;
  t.committed <- t.committed + 1;
  Rob.pop_head t.rob

let commit_stage t =
  let n = ref 0 in
  let continue_ = ref true in
  while !continue_ && !n < t.cfg.Config.commit_width && not t.halted do
    if Rob.count t.rob = 0 then continue_ := false
    else begin
      let e = Rob.entry t.rob (Rob.head t.rob) in
      if e.Rob.completed then begin
        commit_one t e;
        incr n
      end
      else continue_ := false
    end
  done

(* ------------------------------------------------------------------ *)
(* Writeback: completion and address-generation events.                *)
(* ------------------------------------------------------------------ *)

let complete t (e : Rob.entry) rob_idx =
  e.Rob.completed <- true;
  charge1 t Component.Rob;
  charge1 t Component.Resultbus;
  charge1 t Component.Iq_wakeup;
  Iq.wakeup t.iq ~tag:rob_idx ~value_i:e.Rob.value_i ~value_f:e.Rob.value_f;
  (match Lsq.capture_data t.lsq ~tag:rob_idx ~value_i:e.Rob.value_i ~value_f:e.Rob.value_f with
  | [] -> ()
  | captured ->
      List.iter
        (fun (store_rob, store_seq) ->
          schedule_complete t ~cycle:(t.now + 1) ~seq:store_seq ~rob:store_rob)
        captured);
  if e.Rob.is_ctrl then begin
    t.n_branches <- t.n_branches + 1;
    (* Predictor tables are trained at resolution in every issue-queue
       state (lookups are what gating suppresses). *)
    let kind = t.dec.Decoded.kind.(e.Rob.wi) in
    (match kind with
    | Insn.K_branch -> charge1 t Component.Bpred_dir
    | K_jump | K_call | K_return | K_ijump | K_int | K_fp | K_load | K_store
    | K_nop | K_halt ->
        ());
    if e.Rob.taken then charge1 t Component.Btb;
    Predictor.resolve_decoded t.pred ~pc:e.Rob.pc ~kind ~taken:e.Rob.taken
      ~target:e.Rob.actual_npc;
    if e.Rob.actual_npc <> e.Rob.pred_npc then begin
      t.n_mispredicts <- t.n_mispredicts + 1;
      recover t e
    end
  end

(* A load attempting to execute: forward or access the cache. The LSQ
   search is charged once, on the first attempt — replayed loads sleep in
   the queue and are re-checked without a fresh CAM search. *)
let start_load ?(charge_search = true) t ~rob_idx ~(e : Rob.entry) ~addr =
  let le = Lsq.entry t.lsq e.Rob.lsq_idx in
  if charge_search then charge1 t Component.Lsq;
  match Lsq.check_load t.lsq ~idx:e.Rob.lsq_idx ~addr ~width:le.Lsq.width with
  | Lsq.Wait -> false
  | Lsq.Forward se ->
      if le.Lsq.is_fp then e.Rob.value_f <- se.Lsq.data_f
      else e.Rob.value_i <- load_from_reg t.dec.Decoded.ext.(e.Rob.wi) se.Lsq.data_i;
      ff_note_mem t ~kind:2 ~seq:e.Rob.seq ~addr ~lat:0;
      schedule_complete t ~cycle:(t.now + 1) ~seq:e.Rob.seq ~rob:rob_idx;
      true
  | Lsq.Access ->
      let wi = e.Rob.wi in
      let lat =
        (* Wrong-path accesses may compute garbage addresses; an address
           is usable when non-negative and aligned to the access width. *)
        if addr >= 0 && addr land t.dec.Decoded.amask.(wi) = 0 then begin
          let lat = data_latency t ~addr ~write:false in
          if le.Lsq.is_fp then e.Rob.value_f <- Store.read_float t.memory addr
          else e.Rob.value_i <- load_from_memory t t.dec.Decoded.ext.(wi) addr;
          ff_note_mem t ~kind:0 ~seq:e.Rob.seq ~addr ~lat;
          lat
        end
        else begin
          ff_poison t;
          1 (* wrong-path garbage address: complete without touching memory *)
        end
      in
      schedule_complete t ~cycle:(t.now + lat) ~seq:e.Rob.seq ~rob:rob_idx;
      true

let process_agen t ~seq ~rob ~addr ~di ~df ~dtag =
  let e = Rob.entry t.rob rob in
  if e.Rob.seq = seq then begin
    let le = Lsq.entry t.lsq e.Rob.lsq_idx in
    le.Lsq.addr <- addr;
    le.Lsq.addr_ready <- true;
    charge1 t Component.Lsq;
    if e.Rob.is_store then begin
      if dtag = -1 then begin
        le.Lsq.data_i <- di;
        le.Lsq.data_f <- df;
        le.Lsq.data_ready <- true;
        (* The store has done all its execute-stage work. *)
        schedule_complete t ~cycle:(t.now + 1) ~seq ~rob
      end
      else begin
        (* Address is known; the data operand is still in flight and will
           arrive over the result bus. *)
        let producer = Rob.entry t.rob dtag in
        if producer.Rob.completed then begin
          le.Lsq.data_i <- producer.Rob.value_i;
          le.Lsq.data_f <- producer.Rob.value_f;
          le.Lsq.data_ready <- true;
          schedule_complete t ~cycle:(t.now + 1) ~seq ~rob
        end
        else Lsq.wait_data t.lsq le ~tag:dtag
      end
    end
    else if not (start_load t ~rob_idx:rob ~e ~addr) then
      push_replay t ~seq ~rob ~addr
  end

let writeback_stage t =
  let sl = t.now land wheel_mask in
  let n = t.ev_n.(sl) in
  if n > 0 then begin
    (* Snapshot the slot: events scheduled while draining always target a
       strictly later cycle, hence a different wheel slot. *)
    t.ev_n.(sl) <- 0;
    let seqs = t.ev_seq in
    let robs = t.ev_rob in
    let kinds = t.ev_kind in
    let addrs = t.ev_addr in
    let dis = t.ev_di in
    let dtags = t.ev_dtag in
    let dfs = t.ev_df in
    let base = sl * t.ev_cap in
    if Array.length t.ev_ord < n then t.ev_ord <- Array.make (2 * n) 0;
    let ord = t.ev_ord in
    for i = 0 to n - 1 do
      ord.(i) <- base + i
    done;
    (* Drain order: sequence ascending; equal sequences in reverse
       insertion order (the seed stable-sorted a cons-built list, so the
       later insertion comes first within a sequence number). *)
    for i = 1 to n - 1 do
      let x = ord.(i) in
      let j = ref (i - 1) in
      while
        !j >= 0
        && (let y = ord.(!j) in
            seqs.(y) > seqs.(x) || (seqs.(y) = seqs.(x) && y < x))
      do
        ord.(!j + 1) <- ord.(!j);
        decr j
      done;
      ord.(!j + 1) <- x
    done;
    for k = 0 to n - 1 do
      let i = ord.(k) in
      let rob = robs.(i) in
      let seq = seqs.(i) in
      let e = Rob.entry t.rob rob in
      if e.Rob.seq = seq && not e.Rob.completed then
        if kinds.(i) = ev_complete then complete t e rob
        else
          process_agen t ~seq ~rob ~addr:addrs.(i) ~di:dis.(i) ~df:dfs.(i)
            ~dtag:dtags.(i)
    done
  end

let replay_stage t =
  let n = t.rp_n in
  if n > 0 then begin
    (* Swap the arrival-ordered FIFO into scratch; failed attempts are
       re-appended in processing order, exactly the order the seed's
       cons-and-reverse produced. *)
    let seqs = t.rp_seq and robs = t.rp_rob and addrs = t.rp_addr in
    t.rp_seq <- t.rp2_seq;
    t.rp_rob <- t.rp2_rob;
    t.rp_addr <- t.rp2_addr;
    t.rp2_seq <- seqs;
    t.rp2_rob <- robs;
    t.rp2_addr <- addrs;
    t.rp_n <- 0;
    for i = 0 to n - 1 do
      let seq = seqs.(i) and rob = robs.(i) and addr = addrs.(i) in
      let e = Rob.entry t.rob rob in
      if e.Rob.seq = seq && not e.Rob.completed then
        if not (start_load ~charge_search:false t ~rob_idx:rob ~e ~addr) then
          push_replay t ~seq ~rob ~addr
    done
  end

(* ------------------------------------------------------------------ *)
(* Issue stage: oldest-first selection of ready instructions.          *)
(* ------------------------------------------------------------------ *)

let issue_slot t (s : Iq.slot) =
  Iq.mark_issued t.iq s;
  charge1 t Component.Iq_payload;
  (match s.Iq.fu with
  | Insn.FU_ialu -> charge1 t Component.Ialu
  | FU_imult -> charge1 t Component.Imult
  | FU_fpalu -> charge1 t Component.Fpalu
  | FU_fpmult -> charge1 t Component.Fpmult
  | FU_mem -> charge1 t Component.Ialu (* address generation adder *)
  | FU_none -> ());
  let e = Rob.entry t.rob s.Iq.rob_idx in
  if s.Iq.is_mem then begin
    let addr = Bits.add32 s.Iq.src1_i t.dec.Decoded.imm.(s.Iq.wi) in
    schedule t ~cycle:(t.now + 1) ~seq:s.Iq.seq ~rob:s.Iq.rob_idx ~kind:ev_agen
      ~addr ~di:s.Iq.src2_i ~df:s.Iq.src2_f ~dtag:s.Iq.src2_tag
  end
  else begin
    execute_into t e ~wi:s.Iq.wi ~pc:s.Iq.pc ~s1i:s.Iq.src1_i ~s1f:s.Iq.src1_f
      ~s2i:s.Iq.src2_i ~s2f:s.Iq.src2_f;
    schedule_complete t ~cycle:(t.now + s.Iq.lat) ~seq:s.Iq.seq ~rob:s.Iq.rob_idx
  end;
  if not s.Iq.reusable then Iq.kill t.iq s

(* Top-level (closure-free) ready-ring walk: insertion into the running
   top-[width] youngest-seq candidate table. *)
let rec select_scan (rdy : Iq.slot) (cand : Iq.slot array) cand_seq width (s : Iq.slot) =
  if s != rdy then begin
    let j = ref (width - 1) in
    if s.Iq.seq < cand_seq.(!j) then begin
      while !j > 0 && s.Iq.seq < cand_seq.(!j - 1) do
        cand_seq.(!j) <- cand_seq.(!j - 1);
        cand.(!j) <- cand.(!j - 1);
        decr j
      done;
      cand_seq.(!j) <- s.Iq.seq;
      cand.(!j) <- s
    end;
    select_scan rdy cand cand_seq width s.Iq.r_next
  end

let issue_stage t =
  let width = t.cfg.Config.issue_width in
  if Iq.count t.iq > 0 then charge1 t Component.Iq_select;
  (* Collect the [width] oldest ready instructions from the ready ring
     (the ring is not in age order during Code Reuse, so order by
     sequence number — unique, so ring order cannot matter). *)
  let cand = t.issue_cand in
  let cand_seq = t.issue_cand_seq in
  Array.fill cand_seq 0 width max_int;
  let rdy = Iq.ready t.iq in
  select_scan rdy cand cand_seq width rdy.Iq.r_next;
  for k = 0 to width - 1 do
    if cand_seq.(k) < max_int then begin
      let s = cand.(k) in
      if Fu.acquire t.fu s.Iq.fu ~now:t.now ~latency:s.Iq.lat ~pipelined:s.Iq.pipe
      then issue_slot t s
    end
  done

(* ------------------------------------------------------------------ *)
(* Dispatch (rename + queue): normal mode.                             *)
(* ------------------------------------------------------------------ *)

let fill_rob_entry t ~rob_idx ~seq ~pc ~wi ~pred_npc ~ras_ck ~from_reuse ~dst
    ~is_store ~is_ctrl =
  let e = Rob.entry t.rob rob_idx in
  e.Rob.seq <- seq;
  e.Rob.pc <- pc;
  e.Rob.wi <- wi;
  e.Rob.completed <- false;
  e.Rob.value_i <- 0;
  e.Rob.value_f <- 0.;
  e.Rob.dest <- dst;
  e.Rob.is_store <- is_store;
  e.Rob.lsq_idx <- -1;
  e.Rob.is_ctrl <- is_ctrl;
  e.Rob.pred_npc <- pred_npc;
  e.Rob.actual_npc <- pc + 4;
  e.Rob.taken <- false;
  e.Rob.ras_ck <- ras_ck;
  e.Rob.from_reuse <- from_reuse;
  e

let rename_into_slot t (s : Iq.slot) ~seq ~rob_idx ~pc ~wi ~pred_npc ~d =
  charge1 t Component.Rename;
  read_src1 t s (Decoded.d_r1 d);
  read_src2 t s (Decoded.d_r2 d);
  s.Iq.seq <- seq;
  s.Iq.rob_idx <- rob_idx;
  s.Iq.pc <- pc;
  s.Iq.wi <- wi;
  s.Iq.fu <- Decoded.d_fu d;
  s.Iq.lat <- Decoded.d_lat d;
  s.Iq.pipe <- Decoded.d_pipe d;
  s.Iq.is_mem <- Decoded.d_is_mem d;
  s.Iq.is_store <- Decoded.d_is_store d;
  s.Iq.issued <- false;
  s.Iq.pred_npc <- pred_npc;
  let dst = Decoded.d_dst d in
  if dst >= 0 then t.map.(dst) <- rob_idx

(* Decode-cache lookup for the loop currently being buffered; falls back
   to packing a descriptor from the side tables (callee instructions
   buffered from inside the loop live outside the cached window). *)
let dcache_lookup t wi =
  let tail_wi = Decoded.wi_of_pc t.dec t.reuse.Reuse_state.tail in
  let way = tail_wi land (dc_ways - 1) in
  if t.dc_tail.(way) = tail_wi && wi >= t.dc_head.(way) && wi <= tail_wi then begin
    t.dc_hits <- t.dc_hits + 1;
    t.dc_desc.(way).(wi - t.dc_head.(way))
  end
  else Decoded.descriptor t.dec wi

let dcache_install t ~head ~tail =
  let head_wi = Decoded.wi_of_pc t.dec head in
  let tail_wi = Decoded.wi_of_pc t.dec tail in
  if head_wi >= 0 && tail_wi >= head_wi && tail_wi < t.dec.Decoded.n then begin
    let way = tail_wi land (dc_ways - 1) in
    if t.dc_tail.(way) <> tail_wi || t.dc_head.(way) <> head_wi then begin
      t.dc_installs <- t.dc_installs + 1;
      t.dc_head.(way) <- head_wi;
      t.dc_tail.(way) <- tail_wi;
      t.dc_desc.(way) <-
        Array.init (tail_wi - head_wi + 1) (fun k ->
            Decoded.descriptor t.dec (head_wi + k))
    end
  end

(* Dispatch one decoded instruction; returns false on a structural stall. *)
let dispatch_one t (f : fetched) =
  let buffering = t.reuse.Reuse_state.state = Reuse_state.Buffering in
  let d =
    if buffering && f.f_buffered then dcache_lookup t f.f_wi
    else Decoded.descriptor t.dec f.f_wi
  in
  let is_mem = Decoded.d_is_mem d in
  if Rob.is_full t.rob then false
  else if Iq.is_full t.iq then begin
    (* Queue exhausted while buffering a loop (e.g. a too-large procedure
       inside it): the loop is non-bufferable (Section 2.2.2). *)
    if buffering && f.f_buffered then
      revoke_buffering t ~register_nblt:true ~cause:Rv_overflow;
    false
  end
  else if is_mem && Lsq.is_full t.lsq then false
  else begin
    let seq = next_seq t in
    let rob_idx = Rob.alloc t.rob in
    charge1 t Component.Rob;
    let e =
      fill_rob_entry t ~rob_idx ~seq ~pc:f.f_pc ~wi:f.f_wi ~pred_npc:f.f_pred_npc
        ~ras_ck:f.f_ras_ck ~from_reuse:false ~dst:(Decoded.d_dst d)
        ~is_store:(Decoded.d_is_store d) ~is_ctrl:(Decoded.d_is_ctrl d)
    in
    if is_mem then begin
      let li = Lsq.alloc t.lsq in
      let le = Lsq.entry t.lsq li in
      le.Lsq.seq <- seq;
      le.Lsq.rob_idx <- rob_idx;
      le.Lsq.is_store <- e.Rob.is_store;
      le.Lsq.is_fp <- Decoded.d_is_fp_mem d;
      le.Lsq.width <- Decoded.d_width d;
      e.Rob.lsq_idx <- li
    end;
    let s = Iq.dispatch t.iq in
    rename_into_slot t s ~seq ~rob_idx ~pc:f.f_pc ~wi:f.f_wi ~pred_npc:f.f_pred_npc ~d;
    Iq.enqueue t.iq s;
    charge1 t Component.Iq_payload;
    if buffering && f.f_buffered then begin
      s.Iq.reusable <- true;
      charge1 t Component.Lrl;
      t.reuse.Reuse_state.iter_count <- t.reuse.Reuse_state.iter_count + 1;
      if t.reuse.Reuse_state.first_buffered_seq = -1 then
        t.reuse.Reuse_state.first_buffered_seq <- seq;
      (* Iteration boundary: the loop-ending instruction was dispatched. *)
      if f.f_pc = t.reuse.Reuse_state.tail then begin
        let iter_size = t.reuse.Reuse_state.iter_count in
        t.reuse.Reuse_state.iters_buffered <- t.reuse.Reuse_state.iters_buffered + 1;
        t.reuse.Reuse_state.iter_count <- 0;
        let continue_buffering =
          t.cfg.Config.buffer_multiple_iterations && Iq.free t.iq >= iter_size
        in
        if not continue_buffering then begin
          let r =
            loop_record t ~head:t.reuse.Reuse_state.head
              ~tail:t.reuse.Reuse_state.tail
          in
          r.ld_promotions <- r.ld_promotions + 1;
          t.cur_reuse_tail <- t.reuse.Reuse_state.tail;
          Reuse_state.promote ~now:t.now t.reuse;
          Iq.set_reuse_ptr t.iq (Iq.first_reusable t.iq);
          flush_front_end t
        end
      end
    end;
    true
  end

let dispatch_normal t =
  let budget = ref t.cfg.Config.decode_width in
  let continue_ = ref true in
  while
    !continue_ && !budget > 0
    && t.decode_latch.len > 0
    && t.reuse.Reuse_state.state <> Reuse_state.Reusing
  do
    let f = ring_peek t.decode_latch in
    if dispatch_one t f then begin
      (* [dispatch_one] may have promoted to Code Reuse and flushed the
         front-end queues, in which case the latch is now empty. *)
      if t.decode_latch.len > 0 then ring_pop t.decode_latch;
      decr budget
    end
    else continue_ := false
  done

(* ------------------------------------------------------------------ *)
(* Dispatch in Code Reuse state: the queue feeds rename itself.        *)
(* ------------------------------------------------------------------ *)

(* Rename a reused slot in place: only the register information, the ROB
   pointer and the sequence number change (Section 2.4) — the payload
   fields cached at capture (wi, fu, latency, classification) are the
   point of reuse and stay. *)
let rename_reuse_slot t (s : Iq.slot) ~seq ~rob_idx =
  charge1 t Component.Rename;
  read_src1 t s t.dec.Decoded.r1.(s.Iq.wi);
  read_src2 t s t.dec.Decoded.r2.(s.Iq.wi);
  s.Iq.seq <- seq;
  s.Iq.rob_idx <- rob_idx;
  Iq.mark_renamed t.iq s;
  let dst = t.dec.Decoded.dst.(s.Iq.wi) in
  if dst >= 0 then t.map.(dst) <- rob_idx

(* [allow_wrap] implements the paper's unidirectional scan: within one
   cycle the pointer only moves forward; it resets to the first buffered
   instruction after the last one is reused, so a wrap ends the cycle's
   dispatch group. *)
let reuse_dispatch_one t ~allow_wrap =
  let first = Iq.first_reusable t.iq in
  if first < 0 then false
  else begin
    let p = Iq.reuse_ptr t.iq in
    let needs_wrap = p >= Iq.count t.iq || not (Iq.slots t.iq).(p).Iq.reusable in
    if needs_wrap && not allow_wrap then false
    else begin
      let rptr = if needs_wrap then first else p in
      let s = (Iq.slots t.iq).(rptr) in
      if not s.Iq.issued then false (* previous instance still in flight *)
      else if Rob.is_full t.rob then false
      else if s.Iq.is_mem && Lsq.is_full t.lsq then false
      else begin
        let wi = s.Iq.wi in
        let pc = s.Iq.pc in
        let seq = next_seq t in
        let rob_idx = Rob.alloc t.rob in
        charge1 t Component.Rob;
        let e =
          fill_rob_entry t ~rob_idx ~seq ~pc ~wi ~pred_npc:s.Iq.pred_npc
            ~ras_ck:(Predictor.checkpoint t.pred) ~from_reuse:true
            ~dst:t.dec.Decoded.dst.(wi) ~is_store:s.Iq.is_store
            ~is_ctrl:t.dec.Decoded.is_ctrl.(wi)
        in
        if s.Iq.is_mem then begin
          let li = Lsq.alloc t.lsq in
          let le = Lsq.entry t.lsq li in
          le.Lsq.seq <- seq;
          le.Lsq.rob_idx <- rob_idx;
          le.Lsq.is_store <- e.Rob.is_store;
          le.Lsq.is_fp <- t.dec.Decoded.is_fp_mem.(wi);
          le.Lsq.width <- t.dec.Decoded.width.(wi);
          e.Rob.lsq_idx <- li
        end;
        (* Partial update: only the register information and the ROB pointer
           change (Section 2.4) — renaming happens as in normal dispatch. *)
        rename_reuse_slot t s ~seq ~rob_idx;
        s.Iq.reusable <- true;
        charge1 t Component.Lrl;
        charge t Component.Iq_payload Model.iq_partial_update_fraction;
        t.n_reuse_dispatch <- t.n_reuse_dispatch + 1;
        ff_note_dispatch t ~wi ~pc ~pred_npc:s.Iq.pred_npc;
        Iq.set_reuse_ptr t.iq (rptr + 1);
        true
      end
    end
  end

let dispatch_reuse t =
  let budget = ref t.cfg.Config.issue_width in
  let continue_ = ref true in
  (* The pointer reset after the last buffered instruction (Section 2.4)
     is modelled as free within the cycle: the buffered region behaves as
     a circular buffer for the "first n from the pointer" check. *)
  while !continue_ && !budget > 0 && t.reuse.Reuse_state.state = Reuse_state.Reusing do
    if reuse_dispatch_one t ~allow_wrap:true then decr budget else continue_ := false
  done

(* ------------------------------------------------------------------ *)
(* Decode stage: loop detection and classification (Section 2.1).      *)
(* ------------------------------------------------------------------ *)

(* A detector hit in Normal state: filter through the NBLT, then start
   buffering when the loop branch is predicted to loop back. *)
let handle_capture t (f : fetched) ~head ~tail =
  let r = t.reuse in
  r.Reuse_state.n_detections <- r.Reuse_state.n_detections + 1;
  let ld = loop_record t ~head ~tail in
  ld.ld_detections <- ld.ld_detections + 1;
  charge1 t Component.Nblt;
  if Nblt.mem t.nblt tail then begin
    r.Reuse_state.n_nblt_filtered <- r.Reuse_state.n_nblt_filtered + 1;
    ld.ld_nblt_filtered <- ld.ld_nblt_filtered + 1;
    if Tracer.enabled t.tracer then
      Tracer.instant t.tracer ~now:t.now
        ~args:[ ("head", Tracer.Int head); ("tail", Tracer.Int tail) ]
        ~cat:"nblt" "nblt-suppress"
  end
  else if f.f_pred_npc = head then begin
    ld.ld_attempts <- ld.ld_attempts + 1;
    (* Detection works on the predicted target (Section 2.1): buffering
       begins with the second iteration, so it only makes sense when the
       branch is predicted to loop back. *)
    Reuse_state.start_buffering ~now:t.now t.reuse ~head ~tail;
    dcache_install t ~head ~tail
  end

let decode_reuse_hooks t (f : fetched) =
  if t.cfg.Config.reuse_enabled then begin
    let r = t.reuse in
    let dec = t.dec in
    let wi = f.f_wi in
    match r.Reuse_state.state with
    | Reuse_state.Normal ->
        if dec.Decoded.is_ctrl.(wi) then charge1 t Component.Reuse_logic;
        if Tracer.enabled t.tracer then begin
          (* The tracer wants the detector's instants, so take the
             constructor-matching reference path. *)
          match
            Detector.examine ~tracer:t.tracer ~now:t.now
              ~iq_size:t.cfg.Config.iq_entries ~pc:f.f_pc dec.Decoded.insns.(wi)
          with
          | Detector.Capturable { head; tail; span = _ } ->
              handle_capture t f ~head ~tail
          | Detector.Too_large _ | Detector.Not_a_loop -> ()
        end
        else begin
          (* Pure side-table form of [Detector.examine]: conditional
             branches and direct jumps always carry a static target. *)
          match dec.Decoded.kind.(wi) with
          | Insn.K_branch | K_jump ->
              let head = dec.Decoded.target.(wi) in
              let tail = f.f_pc in
              if head <= tail && ((tail - head) / 4) + 1 <= t.cfg.Config.iq_entries
              then handle_capture t f ~head ~tail
          | K_call | K_return | K_ijump | K_int | K_fp | K_load | K_store
          | K_nop | K_halt ->
              ()
        end
    | Reuse_state.Buffering ->
        let in_loop = Reuse_state.in_loop r ~pc:f.f_pc in
        let in_callee = r.Reuse_state.call_depth > 0 in
        f.f_buffered <- in_loop || in_callee;
        (match dec.Decoded.kind.(wi) with
        | Insn.K_call ->
            if f.f_buffered then
              r.Reuse_state.call_depth <- r.Reuse_state.call_depth + 1
        | K_return ->
            if in_callee then r.Reuse_state.call_depth <- r.Reuse_state.call_depth - 1
        | K_branch | K_jump | K_ijump | K_int | K_fp | K_load | K_store | K_nop | K_halt ->
            ());
        if (not in_loop) && not in_callee then
          (* The execution left the loop while buffering (Section 2.2.3). *)
          revoke_buffering t ~register_nblt:true ~cause:Rv_left_loop
        else begin
          (* An inner loop makes the current loop non-bufferable. *)
          match dec.Decoded.kind.(wi) with
          | Insn.K_branch | K_jump ->
              let head = dec.Decoded.target.(wi) in
              if
                head <= f.f_pc
                && ((f.f_pc - head) / 4) + 1 <= t.cfg.Config.iq_entries
                && f.f_pc <> r.Reuse_state.tail
              then revoke_buffering t ~register_nblt:true ~cause:Rv_inner_loop
          | K_call | K_return | K_ijump | K_int | K_fp | K_load | K_store
          | K_nop | K_halt ->
              ()
        end
    | Reuse_state.Reusing -> ()
  end

let decode_stage t =
  if t.reuse.Reuse_state.state <> Reuse_state.Reusing then begin
    let room = t.cfg.Config.decode_width - t.decode_latch.len in
    for _ = 1 to room do
      if t.fetch_q.len > 0 && t.reuse.Reuse_state.state <> Reuse_state.Reusing
      then begin
        let f = ring_peek t.fetch_q in
        charge1 t Component.Decoder;
        decode_reuse_hooks t f;
        (* The hooks never flush the front end (promotion happens at
           dispatch), so the latch slot is always available. *)
        let g = ring_push t.decode_latch in
        g.f_pc <- f.f_pc;
        g.f_wi <- f.f_wi;
        g.f_pred_npc <- f.f_pred_npc;
        g.f_ras_ck <- f.f_ras_ck;
        g.f_buffered <- f.f_buffered;
        ring_pop t.fetch_q
      end
    done
  end

(* ------------------------------------------------------------------ *)
(* Fetch stage.                                                        *)
(* ------------------------------------------------------------------ *)

let fetch_stage t =
  if
    t.reuse.Reuse_state.state <> Reuse_state.Reusing
    && t.fetch_pc >= 0
    && t.now >= t.fetch_stall_until
    && t.fetch_q.len < ring_cap t.fetch_q
    && Decoded.valid t.dec t.fetch_pc
  then begin
    let dec = t.dec in
    (* The loop cache, when present and active, supplies the whole fetch
       group without touching the instruction cache or ITLB. *)
    let serve_lc =
      match t.lc with Some lc -> Loopcache.serving lc ~pc:t.fetch_pc | None -> false
    in
    let lat =
      if serve_lc then begin
        charge1 t Component.Loopcache;
        t.cfg.Config.mem.Hierarchy.l1i.Cache.hit_latency
      end
      else fetch_latency t t.fetch_pc
    in
    if lat > t.cfg.Config.mem.Hierarchy.l1i.Cache.hit_latency then
      t.fetch_stall_until <- t.now + lat
    else begin
      let il1 = Hierarchy.l1i t.hier in
      let cur_line = ref (Cache.line_index il1 ~addr:t.fetch_pc) in
      let fetched = ref 0 in
      let continue_ = ref true in
      while
        !continue_ && !fetched < t.cfg.Config.fetch_width
        && t.fetch_q.len < ring_cap t.fetch_q
        && t.fetch_pc >= 0
      do
        (* Crossing into another cache line (sequentially or through a
           taken branch) costs another port access; a miss there ends the
           group and stalls the front end. Loop-cache-served groups never
           touch the line ports. *)
        if (not serve_lc) && Cache.line_index il1 ~addr:t.fetch_pc <> !cur_line
        then begin
          let lat = fetch_latency t t.fetch_pc in
          if lat > t.cfg.Config.mem.Hierarchy.l1i.Cache.hit_latency then begin
            t.fetch_stall_until <- t.now + lat;
            continue_ := false
          end
          else cur_line := Cache.line_index il1 ~addr:t.fetch_pc
        end;
        if !continue_ then begin
          if not (Decoded.valid t.dec t.fetch_pc) then continue_ := false
          else begin
            let pc = t.fetch_pc in
            let wi = Decoded.wi_of_pc dec pc in
            let kind = dec.Decoded.kind.(wi) in
            let pred_npc =
              if dec.Decoded.is_ctrl.(wi) then begin
                (match kind with
                | Insn.K_branch -> charge1 t Component.Bpred_dir
                | K_call | K_return -> charge1 t Component.Ras
                | K_jump | K_ijump | K_int | K_fp | K_load | K_store | K_nop | K_halt ->
                    ());
                charge1 t Component.Btb;
                Predictor.lookup_decoded t.pred ~pc ~kind
                  ~static_target:dec.Decoded.target.(wi)
              end
              else pc + 4
            in
            let f = ring_push t.fetch_q in
            f.f_pc <- pc;
            f.f_wi <- wi;
            f.f_pred_npc <- pred_npc;
            f.f_ras_ck <- Predictor.checkpoint t.pred;
            f.f_buffered <- false;
            (match t.lc with
            | Some lc ->
                (* Fill writes are charged; supplied reads were charged
                   once for the group. *)
                if Loopcache.state lc = Loopcache.Fill then charge1 t Component.Loopcache;
                Loopcache.on_fetch_decoded lc ~pc ~kind
                  ~static_target:dec.Decoded.target.(wi) ~pred_npc
            | None -> ());
            incr fetched;
            match kind with
            | Insn.K_halt ->
                t.fetch_pc <- -1;
                continue_ := false
            | K_branch | K_jump | K_call | K_return | K_ijump | K_int | K_fp
            | K_load | K_store | K_nop ->
                t.fetch_pc <- pred_npc;
                (* Unknown target: wait for the instruction to resolve. *)
                if pred_npc < 0 then continue_ := false
          end
        end
      done
    end
  end

(* ------------------------------------------------------------------ *)
(* Cycle loop.                                                         *)
(* ------------------------------------------------------------------ *)

(* Windowed sample over (samp_last_cycle, now]: IPC, queue occupancies and
   per-group power, in [sample_channels] order. The occupancies are
   parameters so the fast-forward replay can sample from its logged
   occupancy columns while the pipeline structures stay frozen. *)
let sample_values_occ t ~iqc ~robc ~lsqc =
  let dc = float_of_int (max 1 (t.now - t.samp_last_cycle)) in
  let v = Array.make (5 + Array.length sample_groups) 0. in
  v.(0) <- float_of_int (t.committed - t.samp_last_committed) /. dc;
  v.(1) <- float_of_int iqc;
  v.(2) <- float_of_int robc;
  v.(3) <- float_of_int lsqc;
  let total = ref 0. in
  Array.iteri
    (fun i g ->
      let e = Account.group_energy t.acct g in
      let p = (e -. t.samp_last_energy.(i)) /. dc in
      t.samp_last_energy.(i) <- e;
      total := !total +. p;
      v.(4 + i) <- p)
    sample_groups;
  v.(4 + Array.length sample_groups) <- !total;
  t.samp_last_cycle <- t.now;
  t.samp_last_committed <- t.committed;
  v

let sample_values t =
  sample_values_occ t ~iqc:(Iq.count t.iq) ~robc:(Rob.count t.rob)
    ~lsqc:(Lsq.count t.lsq)

let sample_tick t =
  let sampler_due =
    match t.sampler with Some s -> Sampler.due s ~cycle:t.now | None -> false
  in
  let tracer_due = Tracer.enabled t.tracer && t.now mod t.counter_stride = 0 in
  if sampler_due || tracer_due then begin
    let v = sample_values t in
    (match t.sampler with
    | Some s when sampler_due -> Sampler.record s ~cycle:t.now v
    | Some _ | None -> ());
    if tracer_due then begin
      Tracer.counter t.tracer ~now:t.now ~name:"ipc" [ ("ipc", v.(0)) ];
      Tracer.counter t.tracer ~now:t.now ~name:"occupancy"
        [ ("iq", v.(1)); ("rob", v.(2)); ("lsq", v.(3)) ];
      Tracer.counter t.tracer ~now:t.now ~name:"power"
        (Array.to_list
           (Array.mapi
              (fun i g -> (Component.group_name g, v.(4 + i)))
              sample_groups))
    end
  end

(* End-of-cycle capture for the fast-forward observation: the activity
   vector (before [Account.tick] consumes it), the queue occupancies and
   the cycle's commit count. *)
let ff_capture_cycle t f =
  fv_append f.ff_cur_act (Account.activity t.acct) Component.count;
  iv_push f.ff_cur_occ (Iq.count t.iq);
  iv_push f.ff_cur_occ (Rob.count t.rob);
  iv_push f.ff_cur_occ (Lsq.count t.lsq);
  iv_push f.ff_cur_com (t.committed - f.ff_last_committed);
  f.ff_last_committed <- t.committed

let step_cycle t =
  commit_stage t;
  if not t.halted then begin
    writeback_stage t;
    replay_stage t;
    issue_stage t;
    (match t.reuse.Reuse_state.state with
    | Reuse_state.Reusing -> dispatch_reuse t
    | Reuse_state.Normal | Reuse_state.Buffering -> dispatch_normal t);
    decode_stage t;
    fetch_stage t;
    if t.reuse.Reuse_state.state = Reuse_state.Reusing then begin
      t.gated_cycles <- t.gated_cycles + 1;
      charge1 t Component.Reuse_logic
    end;
    let removed = Iq.compact t.iq in
    if removed > 0 then charge t Component.Iq_payload (float_of_int removed)
  end;
  (match t.ff with
  | Some f when f.ff_mode = 1 -> ff_capture_cycle t f
  | Some _ | None -> ());
  Account.tick t.acct;
  t.now <- t.now + 1;
  sample_tick t

(* ------------------------------------------------------------------ *)
(* Event skip-ahead (Config.skip_ahead).                               *)
(*                                                                     *)
(* When nothing in the pipeline can make progress this cycle — no      *)
(* writeback event due, no replay pending, nothing ready to issue,     *)
(* commit blocked on an incomplete head, front end drained and fetch   *)
(* stalled or gated — the machine's only per-cycle work is the idle    *)
(* power accounting. Such a cycle changes no pipeline state, so the    *)
(* same is true of every following cycle until the next writeback      *)
(* event (or the fetch stall expiring). Those cycles are run through a *)
(* lean loop that performs exactly the charges, accounting and        *)
(* sampling the full cycle loop would, in the same order.              *)

(* Fetch can do nothing now or on any later event-free cycle: gated by
   Code Reuse, blocked on an unresolved redirect, stalled on a miss, or
   past the end of the program. *)
let fetch_blocked t =
  t.reuse.Reuse_state.state = Reuse_state.Reusing
  || t.fetch_pc < 0
  || t.now < t.fetch_stall_until
  || not (Decoded.valid t.dec t.fetch_pc)

(* Mirror of [reuse_dispatch_one]'s early-outs (with wrap allowed, as
   the first dispatch of a cycle has): true when the reuse queue cannot
   dispatch anything this cycle. All inputs change only through events,
   so the answer is stable across event-free cycles. *)
let reuse_dispatch_blocked t =
  let first = Iq.first_reusable t.iq in
  first < 0
  ||
  let p = Iq.reuse_ptr t.iq in
  let needs_wrap = p >= Iq.count t.iq || not (Iq.slots t.iq).(p).Iq.reusable in
  let rptr = if needs_wrap then first else p in
  let s = (Iq.slots t.iq).(rptr) in
  (not s.Iq.issued) || Rob.is_full t.rob || (s.Iq.is_mem && Lsq.is_full t.lsq)

let quiescent t =
  (not t.halted)
  && t.rp_n = 0
  && t.ev_n.(t.now land wheel_mask) = 0
  && (let rdy = Iq.ready t.iq in
      rdy.Iq.r_next == rdy)
  && (Rob.count t.rob = 0
     || not (Rob.entry t.rob (Rob.head t.rob)).Rob.completed)
  && t.fetch_q.len = 0
  && t.decode_latch.len = 0
  &&
  match t.reuse.Reuse_state.state with
  | Reuse_state.Reusing -> reuse_dispatch_blocked t
  | Reuse_state.Normal | Reuse_state.Buffering -> fetch_blocked t

(* First cycle at which a quiescent machine can make progress: the next
   scheduled writeback event, or the fetch stall expiring (when fetch is
   runnable after it), or the cycle limit. *)
let next_wake t ~cycle_limit =
  let best = ref cycle_limit in
  let k = ref 1 in
  let found = ref false in
  while (not !found) && !k <= wheel_mask do
    if t.ev_n.((t.now + !k) land wheel_mask) > 0 then begin
      let c = t.now + !k in
      if c < !best then best := c;
      found := true
    end;
    incr k
  done;
  if
    t.reuse.Reuse_state.state <> Reuse_state.Reusing
    && t.fetch_pc >= 0
    && t.fetch_stall_until > t.now
    && Decoded.valid t.dec t.fetch_pc
    && t.fetch_stall_until < !best
  then best := t.fetch_stall_until;
  !best

(* Lean cycle loop covering [t.now, target): the only charges a
   quiescent cycle makes are the occupied-queue select probe and the
   Code Reuse gating logic, in [step_cycle]'s order; both are invariant
   across the skipped stretch. *)
let skip_to t ~target =
  let iq_busy = Iq.count t.iq > 0 in
  let reusing = t.reuse.Reuse_state.state = Reuse_state.Reusing in
  while t.now < target do
    if iq_busy then charge1 t Component.Iq_select;
    if reusing then begin
      t.gated_cycles <- t.gated_cycles + 1;
      charge1 t Component.Reuse_logic
    end;
    (match t.ff with
    | Some f when f.ff_mode = 1 -> ff_capture_cycle t f
    | Some _ | None -> ());
    Account.tick t.acct;
    t.now <- t.now + 1;
    t.n_skipped <- t.n_skipped + 1;
    sample_tick t
  done

(* ------------------------------------------------------------------ *)
(* Fast-forward: boundary snapshots, verification and replay.          *)
(* ------------------------------------------------------------------ *)

(* Relocation-invariant snapshot of the machine at an iteration
   boundary. Sequence numbers are encoded relative to [seq_ctr], ROB
   references as distance from the ROB head, LSQ references as age rank
   (position in sequence order), cycles as distance from [now] — all
   invariant under the uniform relocation a replay applies. Semantic
   payloads (operand values, addresses, store data) are excluded; the
   replay recomputes and patches them at exit. *)
let ff_rigid_vec t f v =
  iv_clear v;
  let rs = Rob.size t.rob and rh = Rob.head t.rob in
  let rrel i = if i < 0 then -1 else if i >= rh then i - rh else i - rh + rs in
  (* Live LSQ entries in age (sequence) order, by insertion into the
     scratch [lids]; [lrank] maps an entry back to its age rank. *)
  let ls = Lsq.size t.lsq in
  let lids = f.ff_lids and lrank = f.ff_lrank in
  let nl = ref 0 in
  for i = 0 to ls - 1 do
    lrank.(i) <- -1;
    let le = Lsq.entry t.lsq i in
    if le.Lsq.live then begin
      let j = ref !nl in
      while !j > 0 && (Lsq.entry t.lsq lids.(!j - 1)).Lsq.seq > le.Lsq.seq do
        lids.(!j) <- lids.(!j - 1);
        decr j
      done;
      lids.(!j) <- i;
      incr nl
    end
  done;
  for r = 0 to !nl - 1 do
    lrank.(lids.(r)) <- r
  done;
  let lrel i = if i < 0 then -1 else lrank.(i) in
  let sc = t.seq_ctr in
  let b x = if x then 1 else 0 in
  let r = t.reuse in
  iv_push v
    (match r.Reuse_state.state with Normal -> 0 | Buffering -> 1 | Reusing -> 2);
  iv_push v r.Reuse_state.head;
  iv_push v r.Reuse_state.tail;
  iv_push v r.Reuse_state.iter_count;
  iv_push v r.Reuse_state.call_depth;
  iv_push v r.Reuse_state.iters_buffered;
  iv_push v t.cur_reuse_tail;
  iv_push v t.fetch_pc;
  iv_push v (max 0 (t.fetch_stall_until - t.now));
  iv_push v t.fetch_q.len;
  iv_push v t.decode_latch.len;
  iv_push v t.rp_n;
  iv_push v t.dc_hits;
  iv_push v t.dc_installs;
  Fu.ffwd_iter_busy_rel t.fu ~now:t.now (iv_push v);
  Array.iter (fun m -> iv_push v (rrel m)) t.map;
  iv_push v (Rob.count t.rob);
  Rob.iter_oldest_first t.rob (fun _ e ->
      iv_push v (e.Rob.seq - sc);
      iv_push v e.Rob.pc;
      iv_push v e.Rob.wi;
      iv_push v (b e.Rob.completed);
      iv_push v e.Rob.dest;
      iv_push v (b e.Rob.is_store);
      iv_push v (lrel e.Rob.lsq_idx);
      iv_push v (b e.Rob.is_ctrl);
      iv_push v e.Rob.pred_npc;
      iv_push v e.Rob.actual_npc;
      iv_push v (b e.Rob.taken);
      iv_push v e.Rob.ras_ck;
      iv_push v (b e.Rob.from_reuse));
  iv_push v (Iq.count t.iq);
  iv_push v (Iq.reuse_ptr t.iq);
  iv_push v (Iq.first_reusable t.iq);
  let slots = Iq.slots t.iq in
  for i = 0 to Iq.count t.iq - 1 do
    let s = slots.(i) in
    iv_push v (s.Iq.seq - sc);
    iv_push v (rrel s.Iq.rob_idx);
    iv_push v s.Iq.pc;
    iv_push v s.Iq.wi;
    iv_push v
      (match s.Iq.fu with
      | Insn.FU_none -> 0
      | FU_ialu -> 1
      | FU_imult -> 2
      | FU_fpalu -> 3
      | FU_fpmult -> 4
      | FU_mem -> 5);
    iv_push v s.Iq.lat;
    iv_push v (b s.Iq.pipe);
    iv_push v (b s.Iq.is_mem);
    iv_push v (b s.Iq.is_store);
    iv_push v (rrel s.Iq.src1_tag);
    iv_push v (rrel s.Iq.src2_tag);
    iv_push v (b s.Iq.issued);
    iv_push v (b s.Iq.reusable);
    iv_push v (b s.Iq.dead);
    iv_push v s.Iq.pred_npc;
    iv_push v (b (s.Iq.r_next != s));
    iv_push v (b (s.Iq.w1_next != s));
    iv_push v (b (s.Iq.w2_next != s))
  done;
  iv_push v (Lsq.count t.lsq);
  for r = 0 to !nl - 1 do
    let le = Lsq.entry t.lsq lids.(r) in
    iv_push v (le.Lsq.seq - sc);
    iv_push v (rrel le.Lsq.rob_idx);
    iv_push v (b le.Lsq.is_store);
    iv_push v (b le.Lsq.is_fp);
    iv_push v (b le.Lsq.addr_ready);
    iv_push v le.Lsq.width;
    iv_push v (b le.Lsq.data_ready);
    iv_push v (rrel le.Lsq.data_tag)
  done;
  for k = 0 to wheel_mask do
    let sl = (t.now + k) land wheel_mask in
    let n = t.ev_n.(sl) in
    if n > 0 then begin
      iv_push v k;
      iv_push v n;
      for i = sl * t.ev_cap to (sl * t.ev_cap) + n - 1 do
        iv_push v t.ev_kind.(i);
        iv_push v (t.ev_seq.(i) - sc);
        iv_push v (rrel t.ev_rob.(i));
        iv_push v (rrel t.ev_dtag.(i))
      done
    end
  done

(* Monotonic counters that advance by a constant amount per period:
   captured at each boundary into [f.ff_aff_cur]; relocation adds a
   multiple of the verified per-period delta. Field order here and in
   [ff_affine_restore] must match. The buffer is reused while the layout
   (the number of logged loops) stays the same. *)
let ff_affine_capture t f =
  if Array.length f.ff_loops <> Hashtbl.length t.loop_log then begin
    let a = Array.of_seq (Hashtbl.to_seq_values t.loop_log) in
    Array.sort (fun a b -> compare a.ld_tail b.ld_tail) a;
    f.ff_loops <- a
  end;
  let fuc = Fu.ffwd_counters t.fu in
  let nl = Array.length f.ff_loops and nf = Array.length fuc in
  let n = 9 + nl + nf + Predictor.ffwd_affine_len t.pred in
  if Array.length f.ff_aff_cur <> n then f.ff_aff_cur <- Array.make n 0;
  let a = f.ff_aff_cur in
  a.(0) <- t.committed;
  a.(1) <- t.seq_ctr;
  a.(2) <- t.gated_cycles;
  a.(3) <- t.n_branches;
  a.(4) <- t.n_mispredicts;
  a.(5) <- t.n_loads;
  a.(6) <- t.n_stores;
  a.(7) <- t.n_reuse_dispatch;
  a.(8) <- t.n_reuse_commit;
  for j = 0 to nl - 1 do
    a.(9 + j) <- f.ff_loops.(j).ld_reuse_committed
  done;
  Array.blit fuc 0 a (9 + nl) nf;
  Predictor.ffwd_affine t.pred a ~pos:(9 + nl + nf)

let ff_affine_swap f =
  let a = f.ff_aff_prev in
  f.ff_aff_prev <- f.ff_aff_cur;
  f.ff_aff_cur <- a

(* Restore the counters to [m] periods past the base snapshot, using the
   current-snapshot buffer (same layout) as scratch. *)
let ff_affine_restore t f ~m =
  let base = f.ff_aff_prev and d = f.ff_adiff in
  let n = Array.length base in
  if Array.length f.ff_aff_cur <> n then f.ff_aff_cur <- Array.make n 0;
  let v = f.ff_aff_cur in
  for i = 0 to n - 1 do
    v.(i) <- base.(i) + (m * d.(i))
  done;
  t.committed <- v.(0);
  t.seq_ctr <- v.(1);
  t.gated_cycles <- v.(2);
  t.n_branches <- v.(3);
  t.n_mispredicts <- v.(4);
  t.n_loads <- v.(5);
  t.n_stores <- v.(6);
  t.n_reuse_dispatch <- v.(7);
  t.n_reuse_commit <- v.(8);
  let nl = Array.length f.ff_loops in
  for j = 0 to nl - 1 do
    f.ff_loops.(j).ld_reuse_committed <- v.(9 + j)
  done;
  let nf = Array.length (Fu.ffwd_counters t.fu) in
  Fu.ffwd_set_counters t.fu (Array.sub v (9 + nl) nf);
  Predictor.ffwd_set_affine t.pred v ~pos:(9 + nl + nf)

(* (Re)start observation with the current boundary as the base state;
   [f.ff_rigid_cur] must hold this boundary's rigid snapshot. *)
let ff_snapshot_start t f =
  f.ff_mode <- 1;
  f.ff_periods <- 0;
  f.ff_poison <- false;
  f.ff_cycle_start <- t.now;
  f.ff_seq_start <- t.seq_ctr;
  f.ff_last_committed <- t.committed;
  fv_clear f.ff_cur_act;
  iv_clear f.ff_cur_occ;
  iv_clear f.ff_cur_com;
  iv_clear f.ff_cur_mem;
  iv_clear f.ff_cur_dsp;
  f.ff_mem_prev <- [||];
  f.ff_mem_stride <- [||];
  let r = f.ff_rigid_prev in
  f.ff_rigid_prev <- f.ff_rigid_cur;
  f.ff_rigid_cur <- r;
  f.ff_pred_prev <- Predictor.ffwd_version t.pred;
  ff_affine_capture t f;
  ff_affine_swap f

(* One iteration boundary under observation: check this period against
   the base snapshot and the reference logs, and roll the observation
   window forward on success. Period 1's cycle logs are discarded
   (observation started mid-way through its first cycle); period 2
   becomes the reference; periods 3+ must reproduce it bitwise. *)
let ff_verify_boundary t f =
  let p = f.ff_periods + 1 in
  ff_rigid_vec t f f.ff_rigid_cur;
  let pred = Predictor.ffwd_version t.pred in
  ff_affine_capture t f;
  let ok = ref ((not f.ff_poison) && t.rp_n = 0) in
  if !ok then
    ok := iv_equal f.ff_rigid_cur f.ff_rigid_prev && pred = f.ff_pred_prev;
  if !ok then begin
    let acur = f.ff_aff_cur and aprev = f.ff_aff_prev in
    let na = Array.length acur in
    if na <> Array.length aprev then ok := false
    else if p = 1 then begin
      if Array.length f.ff_adiff <> na then f.ff_adiff <- Array.make na 0;
      for i = 0 to na - 1 do
        f.ff_adiff.(i) <- acur.(i) - aprev.(i)
      done
    end
    else begin
      let i = ref 0 in
      while !ok && !i < na do
        if acur.(!i) - aprev.(!i) <> f.ff_adiff.(!i) then ok := false;
        incr i
      done
    end
  end;
  if !ok && p >= 3 then begin
    ok :=
      f.ff_cur_act.fvn = f.ff_ref_act.fvn
      && iv_equal f.ff_cur_occ f.ff_ref_occ
      && iv_equal f.ff_cur_com f.ff_ref_com
      && iv_equal f.ff_cur_dsp f.ff_ref_dsp
      && f.ff_cur_mem.ivn = f.ff_ref_mem.ivn;
    if !ok then begin
      let i = ref 0 in
      while !ok && !i < f.ff_cur_act.fvn do
        if f.ff_cur_act.fv.(!i) <> f.ff_ref_act.fv.(!i) then ok := false;
        incr i
      done
    end;
    if !ok then begin
      let nm = f.ff_ref_mem.ivn / 5 in
      let j = ref 0 in
      while !ok && !j < nm do
        let base = 5 * !j in
        if
          f.ff_cur_mem.iv.(base) <> f.ff_ref_mem.iv.(base)
          || f.ff_cur_mem.iv.(base + 1) <> f.ff_ref_mem.iv.(base + 1)
          || f.ff_cur_mem.iv.(base + 2) <> f.ff_ref_mem.iv.(base + 2)
          || f.ff_cur_mem.iv.(base + 3) <> f.ff_ref_mem.iv.(base + 3)
        then ok := false;
        incr j
      done;
      (* Per-op address strides: each memory op must advance by its own
         constant stride from period to period. Equal-stride pairs keep
         a constant address distance (so their forwarding and aliasing
         relationship is frozen); unequal-stride pairs drift, and the
         replay bounds the number of periods it runs to provably before
         any such pair can come to overlap ([ff_alias_cap]). *)
      if !ok then begin
        if p = 3 then
          f.ff_mem_stride <-
            Array.init nm (fun j ->
                f.ff_cur_mem.iv.((5 * j) + 4) - f.ff_mem_prev.(j))
        else
          for j = 0 to nm - 1 do
            if
              f.ff_cur_mem.iv.((5 * j) + 4) - f.ff_mem_prev.(j)
              <> f.ff_mem_stride.(j)
            then ok := false
          done
      end
    end
  end;
  if !ok then begin
    f.ff_periods <- p;
    (if p = 2 then begin
       let sf = f.ff_ref_act in
       f.ff_ref_act <- f.ff_cur_act;
       f.ff_cur_act <- sf;
       let o = f.ff_ref_occ in
       f.ff_ref_occ <- f.ff_cur_occ;
       f.ff_cur_occ <- o;
       let c = f.ff_ref_com in
       f.ff_ref_com <- f.ff_cur_com;
       f.ff_cur_com <- c;
       let mm = f.ff_ref_mem in
       f.ff_ref_mem <- f.ff_cur_mem;
       f.ff_cur_mem <- mm;
       let dd = f.ff_ref_dsp in
       f.ff_ref_dsp <- f.ff_cur_dsp;
       f.ff_cur_dsp <- dd
     end);
    (if p >= 2 then begin
       let src = if p = 2 then f.ff_ref_mem else f.ff_cur_mem in
       let nm = src.ivn / 5 in
       if Array.length f.ff_mem_prev <> nm then f.ff_mem_prev <- Array.make nm 0;
       for j = 0 to nm - 1 do
         f.ff_mem_prev.(j) <- src.iv.((5 * j) + 4)
       done
     end);
    let rtmp = f.ff_rigid_prev in
    f.ff_rigid_prev <- f.ff_rigid_cur;
    f.ff_rigid_cur <- rtmp;
    f.ff_pred_prev <- pred;
    ff_affine_swap f;
    f.ff_cycle_start <- t.now;
    f.ff_seq_start <- t.seq_ctr;
    f.ff_last_committed <- t.committed;
    fv_clear f.ff_cur_act;
    iv_clear f.ff_cur_occ;
    iv_clear f.ff_cur_com;
    iv_clear f.ff_cur_mem;
    iv_clear f.ff_cur_dsp;
    true
  end
  else false

exception Ff_stop

(* Replay verified periods until the loop's behaviour stops matching the
   template (typically the loop exit), memory timing stops repeating, or
   the cycle budget runs out. Pipeline structures are frozen throughout;
   a semantic machine executes the loop body in program order to supply
   the values the relocated state needs. All checks that can reject a
   period run before the period mutates any processor state — the
   semantic machine works entirely on private copies. *)
let ff_replay_periods t f ~nd ~dc ~cycle_limit =
  let dec = t.dec in
  let base_now = t.now and base_seq = t.seq_ctr in
  let ncomp = Component.count in
  (* Semantic record ring, indexed by sequence number. Sized so records
     stay alive from semantic execution until the commit fold and the
     exit patch reach them. *)
  let cap =
    let need = Rob.size t.rob + (2 * nd) + 64 in
    let c = ref 256 in
    while !c < need do
      c := !c * 2
    done;
    !c
  in
  let rmask = cap - 1 in
  let r_seq = Array.make cap min_int in
  let r_wi = Array.make cap 0
  and r_res_i = Array.make cap 0
  and r_s1i = Array.make cap 0
  and r_s2i = Array.make cap 0
  and r_addr = Array.make cap 0
  and r_sdi = Array.make cap 0
  and r_npc = Array.make cap 0 in
  let r_res_f = Array.make cap 0.
  and r_s1f = Array.make cap 0.
  and r_s2f = Array.make cap 0.
  and r_sdf = Array.make cap 0. in
  let r_taken = Array.make cap false in
  let priv = Store.copy t.memory in
  let sem_i = Array.copy t.arch_i and sem_f = Array.copy t.arch_f in
  let carch_i = Array.copy t.arch_i and carch_f = Array.copy t.arch_f in
  let scratch_rob = Rob.create 1 in
  let se = Rob.entry scratch_rob (Rob.alloc scratch_rob) in
  let load_priv ext addr =
    if ext = Decoded.ext_word then Bits.of_i32 (Store.read_word priv addr)
    else if ext = Decoded.ext_s8 then
      Bits.sign_extend (Store.read_byte priv addr) ~width:8
    else if ext = Decoded.ext_u8 then Store.read_byte priv addr
    else if ext = Decoded.ext_s16 then
      Bits.sign_extend (Store.read_half priv addr) ~width:16
    else Store.read_half priv addr
  in
  (* Execute one instruction architecturally on the private image,
     recording everything the relocation needs. Raises [Ff_stop] on
     anything the replay must not extrapolate over (halt, unusable
     memory address). *)
  let sem_exec ~wi ~pc ~seq =
    let r1 = dec.Decoded.r1.(wi) and r2 = dec.Decoded.r2.(wi) in
    let s1i = if r1 >= 0 && r1 < 32 then sem_i.(r1) else 0 in
    let s1f = if r1 >= 32 then sem_f.(r1 - 32) else 0. in
    let s2i = if r2 >= 0 && r2 < 32 then sem_i.(r2) else 0 in
    let s2f = if r2 >= 32 then sem_f.(r2 - 32) else 0. in
    let i = seq land rmask in
    r_seq.(i) <- seq;
    r_wi.(i) <- wi;
    r_s1i.(i) <- s1i;
    r_s1f.(i) <- s1f;
    r_s2i.(i) <- s2i;
    r_s2f.(i) <- s2f;
    r_addr.(i) <- 0;
    r_sdi.(i) <- 0;
    r_sdf.(i) <- 0.;
    let npc =
      match dec.Decoded.kind.(wi) with
      | Insn.K_load ->
          let addr = Bits.add32 s1i dec.Decoded.imm.(wi) in
          if addr < 0 || addr land dec.Decoded.amask.(wi) <> 0 then raise Ff_stop;
          r_addr.(i) <- addr;
          (if dec.Decoded.is_fp_mem.(wi) then begin
             r_res_f.(i) <- Store.read_float priv addr;
             r_res_i.(i) <- 0
           end
           else begin
             r_res_i.(i) <- load_priv dec.Decoded.ext.(wi) addr;
             r_res_f.(i) <- 0.
           end);
          r_taken.(i) <- false;
          pc + 4
      | K_store ->
          let addr = Bits.add32 s1i dec.Decoded.imm.(wi) in
          if addr < 0 || addr land dec.Decoded.amask.(wi) <> 0 then raise Ff_stop;
          r_addr.(i) <- addr;
          r_sdi.(i) <- s2i;
          r_sdf.(i) <- s2f;
          r_res_i.(i) <- 0;
          r_res_f.(i) <- 0.;
          r_taken.(i) <- false;
          (if dec.Decoded.is_fp_mem.(wi) then Store.write_float priv addr s2f
           else if dec.Decoded.width.(wi) = 1 then Store.write_byte priv addr s2i
           else if dec.Decoded.width.(wi) = 2 then Store.write_half priv addr s2i
           else Store.write_word priv addr (Bits.to_u32 s2i));
          pc + 4
      | K_halt -> raise Ff_stop
      | K_branch | K_jump | K_call | K_return | K_ijump | K_int | K_fp | K_nop
        ->
          execute_into t se ~wi ~pc ~s1i ~s1f ~s2i ~s2f;
          r_res_i.(i) <- se.Rob.value_i;
          r_res_f.(i) <- se.Rob.value_f;
          r_taken.(i) <- se.Rob.taken;
          se.Rob.actual_npc
    in
    r_npc.(i) <- npc;
    (let dst = dec.Decoded.dst.(wi) in
     if dst >= 0 then
       if dst >= 32 then sem_f.(dst - 32) <- r_res_f.(i)
       else sem_i.(dst) <- r_res_i.(i));
    npc
  in
  (* Dispatch and memory templates from the reference period. *)
  let dw = Array.make nd 0 and dp = Array.make nd 0 and dq = Array.make nd 0 in
  for i = 0 to nd - 1 do
    dw.(i) <- f.ff_ref_dsp.iv.(3 * i);
    dp.(i) <- f.ff_ref_dsp.iv.((3 * i) + 1);
    dq.(i) <- f.ff_ref_dsp.iv.((3 * i) + 2)
  done;
  let nm = f.ff_ref_mem.ivn / 5 in
  let mkind = Array.make (max 1 nm) 0
  and moff = Array.make (max 1 nm) 0
  and mrel = Array.make (max 1 nm) 0
  and mlat = Array.make (max 1 nm) 0 in
  for j = 0 to nm - 1 do
    mkind.(j) <- f.ff_ref_mem.iv.(5 * j);
    moff.(j) <- f.ff_ref_mem.iv.((5 * j) + 1);
    mrel.(j) <- f.ff_ref_mem.iv.((5 * j) + 2);
    mlat.(j) <- f.ff_ref_mem.iv.((5 * j) + 3)
  done;
  let mlast = Array.copy f.ff_mem_prev in
  let stride = f.ff_mem_stride in
  let ipp = ref 0 in
  for i = 0 to nd - 1 do
    if dp.(i) = t.reuse.Reuse_state.tail then incr ipp
  done;
  (* Periods the replay may run before any unequal-stride pair involving
     a store could come to overlap. Equal-stride pairs keep a constant
     address distance, so whatever LSQ forwarding/disambiguation
     relationship the observed periods had is frozen; an unequal-stride
     pair drifts linearly — period [m]'s op [j] accesses
     [L_j + (m+1)s_j, +w_j) — so the first period at which ops [j] (in
     period [m]) and [j'] (in period [m+r], for every straddle distance
     [r] the in-flight window allows) can overlap is closed-form. An
     overlap before the replay window (m < 0, i.e. during the observed
     periods themselves) taints the template: the logged timing may
     embed a forwarding event whose address geometry will not recur. *)
  let alias_cap =
    if nm = 0 then max_int
    else begin
      let fdiv a b =
        let q = a / b and r = a mod b in
        if r <> 0 && r < 0 <> (b < 0) then q - 1 else q
      in
      let cdiv a b = -fdiv (-a) b in
      let w = Array.make nm 1 in
      for j = 0 to nm - 1 do
        (* [mrel] can be <= 0 (an op still in flight from an earlier
           period); the dispatch template repeats every [nd] sequence
           numbers, so the op's slot — and hence its window index and
           width — is the offset mod [nd]. *)
        let slot = (((mrel.(j) - 1) mod nd) + nd) mod nd in
        let wi = dw.(slot) in
        w.(j) <-
          (if dec.Decoded.is_fp_mem.(wi) then 8 else dec.Decoded.width.(wi))
      done;
      let cap = ref max_int in
      let rspan = (Rob.size t.rob + nd - 1) / nd in
      let m0 = -f.ff_periods in
      for j = 0 to nm - 1 do
        for j' = 0 to nm - 1 do
          if
            mkind.(j) <= 1
            && mkind.(j') <= 1
            && (mkind.(j) = 1 || mkind.(j') = 1)
            && stride.(j) <> stride.(j')
          then
            for r = 0 to rspan do
              if r > 0 || j <> j' then begin
                let dlt = stride.(j') - stride.(j) in
                let d0 =
                  mlast.(j') + ((r + 1) * stride.(j'))
                  - (mlast.(j) + stride.(j))
                in
                (* Overlap iff 1 - w_j' <= d0 + m*dlt <= w_j - 1. *)
                let lo = 1 - w.(j') and hi = w.(j) - 1 in
                let mlo, mhi =
                  if dlt > 0 then (cdiv (lo - d0) dlt, fdiv (hi - d0) dlt)
                  else (cdiv (hi - d0) dlt, fdiv (lo - d0) dlt)
                in
                if mhi >= m0 then begin
                  let first = max m0 mlo in
                  if first <= mhi then cap := min !cap (max 0 first)
                end
              end
            done
        done
      done;
      !cap
    end
  in
  let m = ref 0 in
  let frontier = ref ((Rob.entry t.rob (Rob.head t.rob)).Rob.seq - 1) in
  (try
     (* Catch up on the in-flight window: every instruction already in
        the ROB must execute to its predicted outcome, or the pipeline
        would leave the loop before the next boundary. *)
     let chain = ref min_int in
     Rob.iter_oldest_first t.rob (fun _ e ->
         if !chain <> min_int && e.Rob.pc <> !chain then raise Ff_stop;
         let npc = sem_exec ~wi:e.Rob.wi ~pc:e.Rob.pc ~seq:e.Rob.seq in
         if npc <> e.Rob.pred_npc then raise Ff_stop;
         chain := npc);
     while true do
       if t.now + dc > cycle_limit then raise Ff_stop;
       if !m >= alias_cap then raise Ff_stop;
       let sbase = base_seq + (!m * nd) in
       (* Lookahead: the next period must follow the dispatch template
          and conform to its predictions (the loop exit surfaces as a
          conformance failure here, before any state is touched). *)
       for i = 0 to nd - 1 do
         if dp.(i) <> !chain then raise Ff_stop;
         let npc = sem_exec ~wi:dw.(i) ~pc:dp.(i) ~seq:(sbase + 1 + i) in
         if npc <> dq.(i) then raise Ff_stop;
         chain := npc
       done;
       (* Memory pre-check: addresses advance by the verified stride and
          cache/TLB accesses will hit (so latencies and the power
          charges baked into the activity log are exact). *)
       for j = 0 to nm - 1 do
         let sq = sbase + mrel.(j) in
         let i = sq land rmask in
         if r_seq.(i) <> sq then raise Ff_stop;
         if r_addr.(i) <> mlast.(j) + stride.(j) then raise Ff_stop;
         if mkind.(j) <= 1 && not (Hierarchy.data_would_hit t.hier ~addr:r_addr.(i))
         then raise Ff_stop
       done;
       (* The period is certain: replay its cycles. Memory ops touch the
          real hierarchy (counters, LRU) and the real memory image at
          their logged offsets; charges ride in the activity log. *)
       let act = Account.activity t.acct in
       let mj = ref 0 in
       for j = 0 to dc - 1 do
         while !mj < nm && moff.(!mj) = j do
           let jj = !mj in
           (if mkind.(jj) <= 1 then begin
              let sq = sbase + mrel.(jj) in
              let i = sq land rmask in
              let a = r_addr.(i) in
              let lat =
                Hierarchy.data_at t.hier ~now:t.now ~addr:a
                  ~write:(mkind.(jj) = 1)
              in
              assert (lat = mlat.(jj));
              if mkind.(jj) = 1 then begin
                let wi = r_wi.(i) in
                if dec.Decoded.is_fp_mem.(wi) then
                  Store.write_float t.memory a r_sdf.(i)
                else if dec.Decoded.width.(wi) = 1 then
                  Store.write_byte t.memory a r_sdi.(i)
                else if dec.Decoded.width.(wi) = 2 then
                  Store.write_half t.memory a r_sdi.(i)
                else Store.write_word t.memory a (Bits.to_u32 r_sdi.(i))
              end
            end);
           incr mj
         done;
         Array.blit f.ff_ref_act.fv (j * ncomp) act 0 ncomp;
         Account.tick t.acct;
         t.committed <- t.committed + f.ff_ref_com.iv.(j);
         t.now <- t.now + 1;
         match t.sampler with
         | Some s when Sampler.due s ~cycle:t.now ->
             let v =
               sample_values_occ t
                 ~iqc:f.ff_ref_occ.iv.(3 * j)
                 ~robc:f.ff_ref_occ.iv.((3 * j) + 1)
                 ~lsqc:f.ff_ref_occ.iv.((3 * j) + 2)
             in
             Sampler.record s ~cycle:t.now v
         | Some _ | None -> ()
       done;
       (* Fold the period's commits into the architectural image. *)
       for s = 1 to nd do
         let sq = !frontier + s in
         let i = sq land rmask in
         assert (r_seq.(i) = sq);
         let dst = dec.Decoded.dst.(r_wi.(i)) in
         if dst >= 0 then
           if dst >= 32 then carch_f.(dst - 32) <- r_res_f.(i)
           else carch_i.(dst) <- r_res_i.(i)
       done;
       frontier := !frontier + nd;
       for j = 0 to nm - 1 do
         mlast.(j) <- mlast.(j) + stride.(j)
       done;
       incr m
     done
   with Ff_stop -> ());
  if !m > 0 then begin
    (* Relocate the frozen pipeline state by m periods: bump sequence
       numbers, rotate the event wheel, patch semantic payloads from the
       records, restore monotonic counters and the architectural
       registers. *)
    let dtot = !m * nd in
    Rob.iter_oldest_first t.rob (fun _ e ->
        e.Rob.seq <- e.Rob.seq + dtot;
        let i = e.Rob.seq land rmask in
        if r_seq.(i) = e.Rob.seq then begin
          e.Rob.value_i <- r_res_i.(i);
          e.Rob.value_f <- r_res_f.(i);
          e.Rob.taken <- r_taken.(i);
          e.Rob.actual_npc <- r_npc.(i)
        end);
    let slots = Iq.slots t.iq in
    for i = 0 to Iq.count t.iq - 1 do
      let s = slots.(i) in
      s.Iq.seq <- s.Iq.seq + dtot;
      let ri = s.Iq.seq land rmask in
      if r_seq.(ri) = s.Iq.seq then begin
        if s.Iq.src1_tag < 0 then begin
          s.Iq.src1_i <- r_s1i.(ri);
          s.Iq.src1_f <- r_s1f.(ri)
        end;
        if s.Iq.src2_tag < 0 then begin
          s.Iq.src2_i <- r_s2i.(ri);
          s.Iq.src2_f <- r_s2f.(ri)
        end
      end
    done;
    for i = 0 to Lsq.size t.lsq - 1 do
      let le = Lsq.entry t.lsq i in
      if le.Lsq.live then begin
        le.Lsq.seq <- le.Lsq.seq + dtot;
        let ri = le.Lsq.seq land rmask in
        if r_seq.(ri) = le.Lsq.seq then begin
          if le.Lsq.addr_ready then le.Lsq.addr <- r_addr.(ri);
          if le.Lsq.is_store && le.Lsq.data_ready then begin
            le.Lsq.data_i <- r_sdi.(ri);
            le.Lsq.data_f <- r_sdf.(ri)
          end
        end
      end
    done;
    let wrot = (!m * dc) land wheel_mask in
    (if wrot <> 0 then begin
       (* Rotate every wheel array by [wrot] slots ([w] words each). *)
       let rot a w =
         let tmp = Array.copy a in
         let len = Array.length a and sh = wrot * w in
         Array.blit tmp 0 a sh (len - sh);
         Array.blit tmp (len - sh) a 0 sh
       in
       let cap = t.ev_cap in
       rot t.ev_seq cap;
       rot t.ev_rob cap;
       rot t.ev_kind cap;
       rot t.ev_addr cap;
       rot t.ev_di cap;
       rot t.ev_dtag cap;
       rot t.ev_df cap;
       rot t.ev_n 1
     end);
    for sl = 0 to wheel_mask do
      for i = sl * t.ev_cap to (sl * t.ev_cap) + t.ev_n.(sl) - 1 do
        let sq = t.ev_seq.(i) + dtot in
        t.ev_seq.(i) <- sq;
        if t.ev_kind.(i) = ev_agen then begin
          let ri = sq land rmask in
          if r_seq.(ri) = sq then begin
            t.ev_addr.(i) <- r_addr.(ri);
            if dec.Decoded.kind.(r_wi.(ri)) = Insn.K_store && t.ev_dtag.(i) < 0
            then begin
              t.ev_di.(i) <- r_sdi.(ri);
              t.ev_df.(i) <- r_sdf.(ri)
            end
          end
        end
      done
    done;
    Fu.ffwd_rebase t.fu ~old_now:base_now ~new_now:t.now;
    ff_affine_restore t f ~m:!m;
    Array.blit carch_i 0 t.arch_i 0 32;
    Array.blit carch_f 0 t.arch_f 0 32;
    t.n_ffwd_iters <- t.n_ffwd_iters + (!m * !ipp);
    (* A productive loop earns its snapshot budget back. *)
    f.ff_cur_work := 0;
    f.ff_fails <- 0
  end

(* The replay pre-checks that every access of the next period hits the
   DTLB and L1D, so it can reproduce only a template of hits: every
   logged latency a hit's (the L1D hit latency for a load, 1 for a store
   commit) and no cycle charging the L2. A load that missed in every
   observed period (its line evicted again each period), or a store
   whose L1D miss a commit latency of 1 hides, would replay as a hit
   while the logged latencies and charges still carried the miss. *)
let ff_template_hits t f =
  let hit = (Cache.cfg (Hierarchy.l1d t.hier)).Cache.hit_latency in
  let m = f.ff_ref_mem and a = f.ff_ref_act in
  let ok = ref true in
  for j = 0 to (m.ivn / 5) - 1 do
    let kind = m.iv.(5 * j) and lat = m.iv.((5 * j) + 3) in
    if (kind = 0 && lat <> hit) || (kind = 1 && lat <> 1) then ok := false
  done;
  let l2 = Component.index Component.L2 in
  for c = 0 to (a.fvn / Component.count) - 1 do
    if a.fv.((c * Component.count) + l2) <> 0. then ok := false
  done;
  !ok

(* Gate on everything the replay's correctness argument needs, then
   replay. Called at a verified boundary. *)
let ff_try_replay t f ~cycle_limit =
  let nd = f.ff_ref_dsp.ivn / 3 in
  let dc = f.ff_ref_com.ivn in
  if
    nd > 0 && dc > 0
    && Array.length f.ff_adiff > 1
    && f.ff_adiff.(0) = nd (* commits per period = dispatches per period *)
    && f.ff_adiff.(1) = nd (* sequence numbers advance by the same *)
    && Array.length f.ff_mem_stride * 5 = f.ff_ref_mem.ivn
    && t.rp_n = 0
    && Rob.count t.rob > 0
    && Hierarchy.quiescent_at t.hier ~now:t.now
    && t.now + dc <= cycle_limit
    && ff_template_hits t f
  then ff_replay_periods t f ~nd ~dc ~cycle_limit

(* Record the current boundary snapshot in the search ring: the ring
   slot and [ff_rigid_cur] swap buffers (the next snapshot overwrites the
   latter anyway). *)
let ff_search_record f pred =
  let slot = f.ff_hist_n mod ff_hist_len in
  let v = f.ff_hist.(slot) in
  f.ff_hist.(slot) <- f.ff_rigid_cur;
  f.ff_rigid_cur <- v;
  f.ff_hist_pred.(slot) <- pred;
  f.ff_hist_n <- f.ff_hist_n + 1

(* Smallest distance k at which the current snapshot matches a recorded
   one (0 = no match in the window). *)
let ff_search_find f pred =
  let kmax = min f.ff_hist_n ff_hist_len in
  let rec go k =
    if k > kmax then 0
    else
      let slot = (f.ff_hist_n - k) mod ff_hist_len in
      if
        iv_equal f.ff_rigid_cur f.ff_hist.(slot) && pred = f.ff_hist_pred.(slot)
      then k
      else go (k + 1)
  in
  go 1

(* Admission gate: the current boundary becomes the base the next
   delta is taken from. *)
let ff_gate_base t f =
  f.ff_b_now <- t.now;
  f.ff_b_com <- t.committed;
  f.ff_b_seq <- t.seq_ctr

(* Fold this boundary's signature in and decide whether the gate is
   open. The signature hashes the three deltas and the ROB/IQ/LSQ
   occupancies (which the rigid snapshot also pins) into one word; a
   collision can only open the gate spuriously, which costs a snapshot,
   never a wrong replay. *)
let ff_gate_step t f =
  let mix h x = (h * 0x100000001b3) lxor x in
  let s = mix (t.now - f.ff_b_now) (t.committed - f.ff_b_com) in
  let s = mix s (t.seq_ctr - f.ff_b_seq) in
  let s = mix (mix (mix s (Rob.count t.rob)) (Iq.count t.iq)) (Lsq.count t.lsq) in
  ff_gate_base t f;
  let n = f.ff_sig_n in
  let opened = ref false in
  for k = 1 to ff_hist_len do
    if k <= n && f.ff_sig.((n - k) land ff_sig_mask) = s then begin
      let r = f.ff_sig_run.(k) + 1 in
      f.ff_sig_run.(k) <- r;
      if r > k then opened := true
    end
    else f.ff_sig_run.(k) <- 0
  done;
  f.ff_sig.(n land ff_sig_mask) <- s;
  f.ff_sig_n <- n + 1;
  f.ff_gate_open <- !opened

(* Enter search mode with an empty snapshot ring. *)
let ff_search_start f =
  f.ff_mode <- 4;
  f.ff_hist_n <- 0;
  f.ff_snaps <- 0

let ff_loop_key t =
  (t.reuse.Reuse_state.head lsl 25) lxor t.reuse.Reuse_state.tail

(* Snapshot-work budget per loop before it is written off. Generous
   enough for the search plus several observation restarts, small enough
   that a hopeless loop costs a bounded amount over the whole run. *)
let ff_work_budget = 512

let ff_go_dormant f =
  f.ff_mode <- 3;
  f.ff_cur_work := ff_work_budget + 1

(* Search mode at a boundary the gate admits: snapshot, and either lock
   onto the period found or remember the snapshot. *)
let ff_search_boundary t f =
  incr f.ff_cur_work;
  f.ff_snaps <- f.ff_snaps + 1;
  ff_rigid_vec t f f.ff_rigid_cur;
  let pred = Predictor.ffwd_version t.pred in
  match ff_search_find f pred with
  | 0 ->
      ff_search_record f pred;
      if f.ff_snaps > ff_search_budget then ff_go_dormant f
  | k ->
      f.ff_super <- k;
      f.ff_bcount <- 0;
      ff_snapshot_start t f

let ff_on_boundary t f ~cycle_limit =
  match f.ff_mode with
  | 0 ->
      let key = ff_loop_key t in
      let cell =
        match Hashtbl.find_opt f.ff_work key with
        | Some r -> r
        | None ->
            let r = ref 0 in
            Hashtbl.add f.ff_work key r;
            r
      in
      f.ff_cur_work <- cell;
      if !cell > ff_work_budget then f.ff_mode <- 3
      else begin
        (* First boundary of the episode: an empty signature history,
           based here. *)
        f.ff_sig_n <- 0;
        f.ff_gate_open <- false;
        ff_gate_base t f;
        ff_search_start f
      end
  | 4 when !(f.ff_cur_work) > ff_work_budget -> ff_go_dormant f
  | 4 ->
      ff_gate_step t f;
      (* The ring must hold consecutive boundaries: a shut gate empties it. *)
      if f.ff_gate_open then ff_search_boundary t f else f.ff_hist_n <- 0
  | 1 ->
      ff_gate_step t f;
      f.ff_bcount <- f.ff_bcount + 1;
      if f.ff_bcount >= f.ff_super then begin
        f.ff_bcount <- 0;
        incr f.ff_cur_work;
        if ff_verify_boundary t f then begin
          if f.ff_periods >= f.ff_k + 1 then begin
            ff_try_replay t f ~cycle_limit;
            (* Whether the replay advanced or stopped immediately, the
               machine sits at a super-boundary: restart observation
               from it. A replay jumps the clock, so the gate's next
               delta is taken from here. *)
            ff_gate_base t f;
            f.ff_bcount <- 0;
            ff_rigid_vec t f f.ff_rigid_cur;
            ff_snapshot_start t f
          end
        end
        else begin
          f.ff_fails <- f.ff_fails + 1;
          if f.ff_fails >= ff_max_fails then ff_go_dormant f
          else begin
            (* Restart the period search, seeded with this boundary's
               snapshot when the gate admits it. *)
            ff_search_start f;
            if f.ff_gate_open then
              ff_search_record f (Predictor.ffwd_version t.pred)
          end
        end
      end
  | _ -> ()

let run ?(cycle_limit = 200_000_000) t =
  let skip = t.cfg.Config.skip_ahead in
  let rec go () =
    if t.halted then Halted
    else if t.now >= cycle_limit then Cycle_limit
    else begin
      if skip && quiescent t then skip_to t ~target:(next_wake t ~cycle_limit);
      if t.now >= cycle_limit then Cycle_limit
      else begin
        step_cycle t;
        (match t.ff with
        | Some f when f.ff_boundary ->
            f.ff_boundary <- false;
            ff_on_boundary t f ~cycle_limit
        | Some _ | None -> ());
        go ()
      end
    end
  in
  go ()

let halted t = t.halted
let cycles t = t.now
let committed t = t.committed
let ipc t = if t.now = 0 then 0. else float_of_int t.committed /. float_of_int t.now
let gated_cycles t = t.gated_cycles
let occupancy t = (Iq.count t.iq, Rob.count t.rob, Lsq.count t.lsq)
let decode_cache_hits t = t.dc_hits
let decode_cache_installs t = t.dc_installs

let arch_state t =
  {
    Machine.final_pc = t.halt_pc + 4;
    instructions = t.committed;
    int_regs = Array.copy t.arch_i;
    fp_regs = Array.copy t.arch_f;
    memory =
      List.rev (Store.fold_nonzero t.memory ~init:[] ~f:(fun acc addr v -> (addr, v) :: acc));
  }

let loop_decisions t =
  Hashtbl.fold (fun _ r acc -> r :: acc) t.loop_log []
  |> List.sort (fun a b -> compare a.ld_tail b.ld_tail)

let account t = t.acct
let tracer t = t.tracer
let sampler t = t.sampler
let hierarchy t = t.hier
let reuse_state t = t.reuse
let nblt t = t.nblt
let loopcache t = t.lc
let config t = t.cfg

type stats = {
  cycles : int;
  committed : int;
  ipc : float;
  gated_cycles : int;
  gated_fraction : float;
  branches : int;
  mispredicts : int;
  loads : int;
  stores : int;
  reuse_dispatches : int;
  reuse_committed : int;
  buffer_attempts : int;
  revokes : int;
  promotions : int;
  reuse_exits : int;
  avg_power : float;
  icache_accesses : int;
  icache_misses : int;
  dcache_accesses : int;
  dcache_misses : int;
  skipped_cycles : int;
  ffwd_iterations : int;
}

let stats t =
  {
    cycles = t.now;
    committed = t.committed;
    ipc = ipc t;
    gated_cycles = t.gated_cycles;
    gated_fraction = (if t.now = 0 then 0. else float_of_int t.gated_cycles /. float_of_int t.now);
    branches = t.n_branches;
    mispredicts = t.n_mispredicts;
    loads = t.n_loads;
    stores = t.n_stores;
    reuse_dispatches = t.n_reuse_dispatch;
    reuse_committed = t.n_reuse_commit;
    buffer_attempts = t.reuse.Reuse_state.n_buffer_attempts;
    revokes = t.reuse.Reuse_state.n_revokes;
    promotions = t.reuse.Reuse_state.n_promotions;
    reuse_exits = t.reuse.Reuse_state.n_reuse_exits;
    avg_power = Account.avg_power t.acct;
    icache_accesses = Cache.accesses (Hierarchy.l1i t.hier);
    icache_misses = Cache.misses (Hierarchy.l1i t.hier);
    dcache_accesses = Cache.accesses (Hierarchy.l1d t.hier);
    dcache_misses = Cache.misses (Hierarchy.l1d t.hier);
    skipped_cycles = t.n_skipped;
    ffwd_iterations = t.n_ffwd_iters;
  }
