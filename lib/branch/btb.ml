open Riq_util

(* Flat tables: [keys] holds two words per entry, row-major by set — the
   tag (-1 when invalid; real tags are non-negative since [pc lsr 2] is)
   and the target. The LRU stamps live in their own array so the
   fast-forward snapshot of them is a single blit. *)
type t = {
  sets : int;
  ways : int;
  keys : int array; (* 2 * sets * ways *)
  lru : int array; (* sets * ways *)
  mutable clock : int;
  mutable n_lookup : int;
  mutable n_hit : int;
  mutable n_update : int;
  mutable version : int;
}

let create ~sets ~ways =
  if not (Bits.is_pow2 sets) then invalid_arg "Btb.create: sets must be a power of two";
  if ways < 1 then invalid_arg "Btb.create: ways must be >= 1";
  {
    sets;
    ways;
    keys = Array.make (2 * sets * ways) (-1);
    lru = Array.make (sets * ways) 0;
    clock = 0;
    n_lookup = 0;
    n_hit = 0;
    n_update = 0;
    version = 0;
  }

(* Entry index of the matching way, or -1: the hot path stays free of
   option and tuple allocations. *)
let find_idx t ~pc =
  let idx = pc lsr 2 in
  let tag = idx / t.sets in
  let base = (idx land (t.sets - 1)) * t.ways in
  let w = ref 0 in
  while !w < t.ways && Array.unsafe_get t.keys (2 * (base + !w)) <> tag do
    incr w
  done;
  if !w < t.ways then base + !w else -1

let lookup_target t ~pc =
  t.n_lookup <- t.n_lookup + 1;
  t.clock <- t.clock + 1;
  let i = find_idx t ~pc in
  if i >= 0 then begin
    t.n_hit <- t.n_hit + 1;
    t.lru.(i) <- t.clock;
    t.keys.((2 * i) + 1)
  end
  else -1

let lookup t ~pc =
  let tgt = lookup_target t ~pc in
  if tgt >= 0 then Some tgt else None

let update t ~pc ~target =
  t.n_update <- t.n_update + 1;
  t.clock <- t.clock + 1;
  let i = find_idx t ~pc in
  if i >= 0 then begin
    if t.keys.((2 * i) + 1) <> target then begin
      t.keys.((2 * i) + 1) <- target;
      t.version <- t.version + 1
    end;
    t.lru.(i) <- t.clock
  end
  else begin
    let idx = pc lsr 2 in
    let base = (idx land (t.sets - 1)) * t.ways in
    (* Victim: the first invalid way if any, else true LRU. *)
    let v = ref base in
    let w = ref 1 in
    while t.keys.(2 * !v) >= 0 && !w < t.ways do
      let e = base + !w in
      if t.keys.(2 * e) < 0 || t.lru.(e) < t.lru.(!v) then v := e;
      incr w
    done;
    let v = !v in
    t.keys.(2 * v) <- idx / t.sets;
    t.keys.((2 * v) + 1) <- target;
    t.lru.(v) <- t.clock;
    t.version <- t.version + 1
  end

(* Fast-forward snapshots (Processor's loop fast-forward, DESIGN §9):
   tags/targets/valid bits must repeat exactly across loop iterations,
   while the clock and the LRU stamps advance by a constant amount per
   iteration — so content changes are tracked by an O(1) version counter
   (bumped on any tag/target/valid change; refreshing an entry with the
   target it already holds is a no-op) and the clock/LRU stamps are
   snapshotted separately and relocated by adding a multiple of the
   observed per-iteration stride. *)

let version t = t.version
let ffwd_affine_len t = 4 + Array.length t.lru

let ffwd_affine t a ~pos =
  a.(pos) <- t.clock;
  a.(pos + 1) <- t.n_lookup;
  a.(pos + 2) <- t.n_hit;
  a.(pos + 3) <- t.n_update;
  Array.blit t.lru 0 a (pos + 4) (Array.length t.lru)

let ffwd_set_affine t a ~pos =
  t.clock <- a.(pos);
  t.n_lookup <- a.(pos + 1);
  t.n_hit <- a.(pos + 2);
  t.n_update <- a.(pos + 3);
  Array.blit a (pos + 4) t.lru 0 (Array.length t.lru)

let lookups t = t.n_lookup
let hits t = t.n_hit
let updates t = t.n_update
