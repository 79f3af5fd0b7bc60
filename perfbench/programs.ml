(* The fixed pool of generated programs that fuzz-campaign and
   serve-repeat draw from. Program [j] is the generator's default-shaped
   program for seed [Gen.derive_seed pool_seed j]; the expected digest of
   every pool program is committed, so a run with any benchmark seed
   checks its outputs exactly. The benchmark seed picks which programs a
   run uses and in what order. *)

open Riq_fuzz

let pool_seed = 2004
let size = 4096

let config_name = "default"

let cfg, params =
  match Driver.config config_name with Ok c -> c | Error e -> failwith e

let prog j = Gen.program ~params ~seed:(Gen.derive_seed pool_seed j) ()

(* Generate and assemble pool program [j]. *)
let program j =
  match Prog.to_program (prog j) with
  | Ok p -> p
  | Error e -> failwith (Printf.sprintf "pool program %d does not assemble: %s" j e)

(* Pool programs on which this tree's simulator is wrong: the reuse-on run
   commits one instruction fewer than the reference interpreter (replay
   with `riq-fuzz gen --seed 2004 --index J | riq-fuzz replay`). They are
   left out of every sample so that a run measures with no failing op;
   the self-test checks that they still fail, and they go back into the
   pool once the simulator is fixed. *)
let known_failures = [ 1516; 1740; 2203 ]

(* Recorded in every result that samples the pool. *)
let excluded_info =
  ( "excluded_known_failures",
    Riq_util.Json.List (List.map (fun j -> Riq_util.Json.Int j) known_failures) )

(* [n] distinct pool indices in a seeded order. *)
let sample ~seed n =
  let a =
    Array.of_list (List.filter (fun j -> not (List.mem j known_failures)) (List.init size Fun.id))
  in
  if n > Array.length a then invalid_arg "Programs.sample: more programs than the pool holds";
  Riq_util.Rng.shuffle (Riq_util.Rng.create seed) a;
  Array.sub a 0 n
