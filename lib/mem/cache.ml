open Riq_util

type config = {
  name : string;
  sets : int;
  ways : int;
  line_bytes : int;
  hit_latency : int;
}

let config ~name ~sets ~ways ~line_bytes ~hit_latency =
  if not (Bits.is_pow2 sets) then invalid_arg "Cache.config: sets must be a power of two";
  if not (Bits.is_pow2 line_bytes) then
    invalid_arg "Cache.config: line size must be a power of two";
  if ways < 1 then invalid_arg "Cache.config: ways must be >= 1";
  if hit_latency < 1 then invalid_arg "Cache.config: hit latency must be >= 1";
  { name; sets; ways; line_bytes; hit_latency }

let size_bytes c = c.sets * c.ways * c.line_bytes

(* The tag store is one flat [int array], two words per line, row-major
   by set: the tag, then a packed word [lru lsl 2 lor dirty lsl 1 lor
   valid]. A set's ways sit side by side, so a lookup walks adjacent
   words and [create] is a single [Array.make]. *)
let valid_bit = 1
let dirty_bit = 2
let lru_shift = 2

type t = {
  config : config;
  lines : int array; (* 2 * sets * ways *)
  (* Shift/mask forms of the (power-of-two) geometry: integer division by
     a runtime divisor is ~25 cycles on this core; a shift is one. *)
  line_shift : int;
  set_mask : int;
  set_shift : int;
  mutable clock : int; (* monotonic, for LRU ordering *)
  mutable n_access : int;
  mutable n_hit : int;
  mutable n_dirty_evict : int;
}

type result = Hit | Miss of { dirty_evict : bool }

let miss_clean = Miss { dirty_evict = false }
let miss_dirty = Miss { dirty_evict = true }

let create config =
  {
    config;
    lines = Array.make (2 * config.sets * config.ways) 0;
    line_shift = Bits.log2 config.line_bytes;
    set_mask = config.sets - 1;
    set_shift = Bits.log2 config.sets;
    clock = 0;
    n_access = 0;
    n_hit = 0;
    n_dirty_evict = 0;
  }

let cfg t = t.config

(* Wrong-path address arithmetic can go negative; [lsr] and [/] disagree
   there, so fall back to the division (the branch predicts perfectly). *)
let line_index t ~addr =
  if addr >= 0 then addr lsr t.line_shift else addr / t.config.line_bytes

let tag_of t line_idx =
  if line_idx >= 0 then line_idx lsr t.set_shift else line_idx / t.config.sets

(* Word offset of the matching line's tag in [t.lines], or -1. Tags are
   unique within a set, so the first match is the match. *)
let find t ~addr =
  let line_idx = line_index t ~addr in
  let tag = tag_of t line_idx in
  let lines = t.lines in
  let base = 2 * (line_idx land t.set_mask) * t.config.ways in
  let stop = base + (2 * t.config.ways) in
  let i = ref base in
  while
    !i < stop
    && not
         (Array.unsafe_get lines (!i + 1) land valid_bit <> 0
         && Array.unsafe_get lines !i = tag)
  do
    i := !i + 2
  done;
  if !i < stop then !i else -1

let access t ~addr ~write =
  t.n_access <- t.n_access + 1;
  t.clock <- t.clock + 1;
  let lines = t.lines in
  let stamp = t.clock lsl lru_shift in
  let hit = find t ~addr in
  if hit >= 0 then begin
    t.n_hit <- t.n_hit + 1;
    let m = lines.(hit + 1) in
    lines.(hit + 1) <-
      stamp lor (m land dirty_bit) lor (if write then dirty_bit else 0) lor valid_bit;
    Hit
  end
  else begin
    let line_idx = line_index t ~addr in
    let base = 2 * (line_idx land t.set_mask) * t.config.ways in
    (* Choose the eviction victim: the first invalid way if any, else
       true LRU. The stamp fills the high bits and valid stamps are
       distinct, so comparing packed words orders by stamp. *)
    let v = ref base in
    let vm = ref lines.(base + 1) in
    let w = ref 1 in
    while !vm land valid_bit <> 0 && !w < t.config.ways do
      let i = base + (2 * !w) in
      let m = Array.unsafe_get lines (i + 1) in
      if m land valid_bit = 0 || m < !vm then begin
        v := i;
        vm := m
      end;
      incr w
    done;
    let vm = !vm in
    let dirty_evict = vm land (valid_bit lor dirty_bit) = valid_bit lor dirty_bit in
    if dirty_evict then t.n_dirty_evict <- t.n_dirty_evict + 1;
    lines.(!v) <- tag_of t line_idx;
    lines.(!v + 1) <- stamp lor (if write then dirty_bit else 0) lor valid_bit;
    if dirty_evict then miss_dirty else miss_clean
  end

let probe t ~addr = find t ~addr >= 0

let flush t =
  for i = 0 to (Array.length t.lines / 2) - 1 do
    let j = (2 * i) + 1 in
    t.lines.(j) <- t.lines.(j) land lnot (valid_bit lor dirty_bit)
  done

let accesses t = t.n_access
let hits t = t.n_hit
let misses t = t.n_access - t.n_hit
let dirty_evictions t = t.n_dirty_evict
let miss_rate t = Stats.ratio (float_of_int (misses t)) (float_of_int t.n_access)

let reset_stats t =
  t.n_access <- 0;
  t.n_hit <- 0;
  t.n_dirty_evict <- 0
