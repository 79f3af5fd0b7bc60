(* In-memory span recorder for the traced run.

   Spans are recorded around the calls the benchmark itself makes into the
   repo's libraries: name, start, end, the enclosing span, and the op (job,
   program or request) they belong to. Nothing is written until the run
   ends. With [enabled] false, [with_] is a plain call, so untraced runs
   pay one branch per call site.

   A call that a library makes internally cannot be timed from outside,
   so the benchmark makes it once more, next to the op, under its own
   span. That span names the span whose internal call it repeats in
   [deduct_from]; its time is subtracted from that span's self time as
   well as from its real parent's, so the work is counted once, in its
   own layer, and the self times of an op's spans add up to the op's
   time less the repeated calls. *)

type span = {
  id : int;
  name : string;  (** "<layer>.<call>", e.g. "core.run" *)
  op : int;  (** shared by every span of one op; -1 outside ops *)
  parent : int;  (** enclosing span id; -1 at top level *)
  deduct_from : int;  (** span whose internal call this one repeats; -1 if none *)
  t0 : float;
  t1 : float;
}

let enabled = ref false
let recorded : span list ref = ref []
let next_id = ref 0
let stack : (int * int) list ref = ref [] (* open (span id, op) pairs *)
let last_closed = ref (-1)

let reset () =
  recorded := [];
  next_id := 0;
  stack := [];
  last_closed := -1

(* The id of the span that closed most recently; -1 when not tracing. *)
let last () = if !enabled then !last_closed else -1

let with_ ?op ?(deduct_from = -1) name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent, inherited = match !stack with (p, o) :: _ -> (p, o) | [] -> (-1, -1) in
    let op = Option.value op ~default:inherited in
    stack := (id, op) :: !stack;
    let t0 = Unix.gettimeofday () in
    let finish () =
      let t1 = Unix.gettimeofday () in
      stack := List.tl !stack;
      last_closed := id;
      recorded := { id; name; op; parent; deduct_from; t0; t1 } :: !recorded
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

let layer name =
  match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name

type agg = { calls : int; total : float; self : float }

(* Per span name: call count, total duration and self time (duration minus
   the time its direct children and the calls it repeats cover; spans nest
   strictly because the recorder is single-threaded). *)
let aggregate () =
  let child_time = Hashtbl.create 256 in
  let charge id dur =
    if id >= 0 then
      let prev = Option.value (Hashtbl.find_opt child_time id) ~default:0. in
      Hashtbl.replace child_time id (prev +. dur)
  in
  List.iter
    (fun s ->
      charge s.parent (s.t1 -. s.t0);
      charge s.deduct_from (s.t1 -. s.t0))
    !recorded;
  let by_name = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let dur = s.t1 -. s.t0 in
      let self = dur -. Option.value (Hashtbl.find_opt child_time s.id) ~default:0. in
      let a =
        Option.value (Hashtbl.find_opt by_name s.name)
          ~default:{ calls = 0; total = 0.; self = 0. }
      in
      Hashtbl.replace by_name s.name
        { calls = a.calls + 1; total = a.total +. dur; self = a.self +. self })
    !recorded;
  by_name

(* Mean duration of one call, in milliseconds (0 when never called). *)
let mean_ms by_name name =
  match Hashtbl.find_opt by_name name with
  | Some a when a.calls > 0 -> 1000. *. a.total /. float_of_int a.calls
  | _ -> 0.

(* Summed duration of every call to the named spans, in seconds. *)
let total_s by_name names =
  List.fold_left
    (fun acc n -> acc +. match Hashtbl.find_opt by_name n with Some a -> a.total | None -> 0.)
    0. names

(* Summed self time of every span whose name is in [layer], in ms. *)
let layer_self_ms by_name l =
  Hashtbl.fold (fun name a acc -> if layer name = l then acc +. (1000. *. a.self) else acc)
    by_name 0.

let to_json () =
  let open Riq_util.Json in
  List
    (List.rev_map
       (fun s ->
         Obj
           [
             ("id", Int s.id);
             ("name", String s.name);
             ("op", Int s.op);
             ("parent", Int s.parent);
             ("deduct_from", Int s.deduct_from);
             ("start_us", Float (s.t0 *. 1e6));
             ("end_us", Float (s.t1 *. 1e6));
           ])
       !recorded)
