open Riq_isa

type scheme = Bimodal | Gshare of { history_bits : int }

type config = {
  scheme : scheme;
  entries : int;
  btb_sets : int;
  btb_ways : int;
  ras_size : int;
}

let baseline = { scheme = Bimodal; entries = 2048; btb_sets = 512; btb_ways = 4; ras_size = 8 }

type dir = Dir_bimod of Bimod.t | Dir_gshare of Gshare.t

type t = {
  config : config;
  dir : dir;
  btb : Btb.t;
  ras : Ras.t;
  mutable n_dir_lookup : int;
  mutable n_dir_update : int;
}

let create config =
  let dir =
    match config.scheme with
    | Bimodal -> Dir_bimod (Bimod.create config.entries)
    | Gshare { history_bits } ->
        Dir_gshare (Gshare.create ~entries:config.entries ~history_bits)
  in
  {
    config;
    dir;
    btb = Btb.create ~sets:config.btb_sets ~ways:config.btb_ways;
    ras = Ras.create config.ras_size;
    n_dir_lookup = 0;
    n_dir_update = 0;
  }

let cfg t = t.config

type decision = { taken : bool; target : int option; used_ras : bool; btb_hit : bool }

let fall_through = { taken = false; target = None; used_ras = false; btb_hit = false }

let predict_dir t ~pc =
  t.n_dir_lookup <- t.n_dir_lookup + 1;
  match t.dir with
  | Dir_bimod b -> Bimod.predict b ~pc
  | Dir_gshare g -> Gshare.predict g ~pc

let update_dir t ~pc ~taken =
  t.n_dir_update <- t.n_dir_update + 1;
  match t.dir with
  | Dir_bimod b -> Bimod.update b ~pc ~taken
  | Dir_gshare g -> Gshare.update g ~pc ~taken

let lookup t ~pc ~insn =
  match Insn.kind insn with
  | Insn.K_branch ->
      let taken = predict_dir t ~pc in
      let btb = Btb.lookup t.btb ~pc in
      let target = if taken then Insn.ctrl_target insn ~pc else None in
      { taken; target; used_ras = false; btb_hit = btb <> None }
  | K_jump ->
      let btb = Btb.lookup t.btb ~pc in
      { taken = true; target = Insn.ctrl_target insn ~pc; used_ras = false; btb_hit = btb <> None }
  | K_call ->
      Ras.push t.ras (pc + 4);
      let btb = Btb.lookup t.btb ~pc in
      let target =
        match Insn.ctrl_target insn ~pc with Some tgt -> Some tgt | None -> btb
      in
      { taken = true; target; used_ras = false; btb_hit = btb <> None }
  | K_return -> (
      let popped = Ras.pop t.ras in
      match popped with
      | Some target -> { taken = true; target = Some target; used_ras = true; btb_hit = false }
      | None ->
          let btb = Btb.lookup t.btb ~pc in
          { taken = true; target = btb; used_ras = false; btb_hit = btb <> None })
  | K_ijump ->
      let btb = Btb.lookup t.btb ~pc in
      { taken = true; target = btb; used_ras = false; btb_hit = btb <> None }
  | K_int | K_fp | K_load | K_store | K_nop | K_halt -> fall_through

(* Decoded variants: same table mutations in the same order as
   [lookup]/[resolve], but driven by a pre-extracted kind and static
   target (-1 = statically unknown) and returning the predicted next pc
   directly (-1 = unknown, fetch must stall) — no option or record
   allocation on the fetch path. *)

let lookup_decoded t ~pc ~kind ~static_target =
  match kind with
  | Insn.K_branch ->
      let taken = predict_dir t ~pc in
      ignore (Btb.lookup_target t.btb ~pc);
      if taken then static_target else pc + 4
  | K_jump ->
      ignore (Btb.lookup_target t.btb ~pc);
      static_target
  | K_call ->
      Ras.push t.ras (pc + 4);
      let btb = Btb.lookup_target t.btb ~pc in
      if static_target >= 0 then static_target else btb
  | K_return -> (
      match Ras.pop t.ras with
      | Some target -> target
      | None -> Btb.lookup_target t.btb ~pc)
  | K_ijump -> Btb.lookup_target t.btb ~pc
  | K_int | K_fp | K_load | K_store | K_nop | K_halt -> pc + 4

let resolve_decoded t ~pc ~kind ~taken ~target =
  match kind with
  | Insn.K_branch ->
      update_dir t ~pc ~taken;
      if taken then Btb.update t.btb ~pc ~target
  | K_jump | K_call | K_ijump -> Btb.update t.btb ~pc ~target
  | K_return -> ()
  | K_int | K_fp | K_load | K_store | K_nop | K_halt -> ()

let resolve t ~pc ~insn ~taken ~target =
  match Insn.kind insn with
  | Insn.K_branch ->
      update_dir t ~pc ~taken;
      if taken then Btb.update t.btb ~pc ~target
  | K_jump | K_call | K_ijump -> Btb.update t.btb ~pc ~target
  | K_return -> () (* returns are served by the RAS, keeping the BTB clean *)
  | K_int | K_fp | K_load | K_store | K_nop | K_halt -> ()

(* Fast-forward snapshot support: the direction tables, BTB contents and
   RAS window must repeat exactly across steady-state loop iterations
   (rigid); the BTB clock/LRU stamps and the access counters advance by a
   constant per-iteration stride (affine) and are relocated by adding a
   multiple of that stride. Rigid equality is proven in O(1) by content
   version counters: each component bumps its version exactly when stored
   content changes, so two equal readings of the sum certify that no
   component mutated in between (the counters are individually monotonic
   non-decreasing, making the sum collision-free). *)

let ffwd_version t =
  (match t.dir with
  | Dir_bimod b -> Bimod.version b
  | Dir_gshare g -> Gshare.version g)
  + Btb.version t.btb + Ras.version t.ras

let ffwd_affine_len t = 2 + Btb.ffwd_affine_len t.btb

let ffwd_affine t a ~pos =
  a.(pos) <- t.n_dir_lookup;
  a.(pos + 1) <- t.n_dir_update;
  Btb.ffwd_affine t.btb a ~pos:(pos + 2)

let ffwd_set_affine t a ~pos =
  t.n_dir_lookup <- a.(pos);
  t.n_dir_update <- a.(pos + 1);
  Btb.ffwd_set_affine t.btb a ~pos:(pos + 2)

type checkpoint = int

let checkpoint t = Ras.checkpoint t.ras
let restore t ck = Ras.restore t.ras ck

let dir_lookups t = t.n_dir_lookup
let dir_updates t = t.n_dir_update
let btb_lookups t = Btb.lookups t.btb
let btb_updates t = Btb.updates t.btb
let ras_ops t = Ras.pushes t.ras + Ras.pops t.ras
