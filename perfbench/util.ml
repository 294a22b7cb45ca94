(* Statistics, in-band counter snapshots, spans and the result record. *)

module Wire = Rvu_obs.Wire

(* Linear-interpolation quantile of an unsorted sample, q in [0, 1]. *)
let quantile a q =
  let s = Array.copy a in
  Array.sort compare s;
  let n = Array.length s in
  if n = 0 then Float.nan
  else
    let x = q *. float_of_int (n - 1) in
    let i = int_of_float x in
    if i >= n - 1 then s.(n - 1) else s.(i) +. ((x -. float_of_int i) *. (s.(i + 1) -. s.(i)))

let median a = quantile a 0.5

(* Numeric leaves of a stats document keyed by dotted path (lists are
   skipped: per-shard detail is read from the aggregate sections). *)
let counters w =
  let acc = Hashtbl.create 64 in
  let rec go prefix = function
    | Wire.Int n -> Hashtbl.replace acc prefix (float_of_int n)
    | Wire.Float f -> Hashtbl.replace acc prefix f
    | Wire.Obj fields ->
        List.iter (fun (k, v) -> go (if prefix = "" then k else prefix ^ "." ^ k) v) fields
    | _ -> ()
  in
  go "" w;
  acc

let get tbl path = Option.value ~default:0.0 (Hashtbl.find_opt tbl path)
let delta before after path = get after path -. get before path

(* Cumulative bucket counts of one registry histogram in a [metrics]
   snapshot, as (upper bound, cumulative count) pairs. *)
let histogram metrics name =
  match Wire.member "metrics" metrics with
  | Some (Wire.List ms) ->
      List.find_map
        (fun m ->
          if Wire.member "name" m = Some (Wire.String name) then
            match Wire.member "buckets" m with
            | Some (Wire.List bs) ->
                Some
                  (List.filter_map
                     (fun b ->
                       match (Wire.member "le" b, Wire.member "cumulative" b) with
                       | Some (Wire.Float le), Some (Wire.Int c) -> Some (le, float_of_int c)
                       | _ -> None)
                     bs)
            | _ -> None
          else None)
        ms
      |> Option.value ~default:[]
  | _ -> []

(* Upper bucket bound below which [q] of the observations made between two
   snapshots fall; 0 when nothing was observed. *)
let histogram_quantile before after q =
  let d = List.map2 (fun (le, a) (_, b) -> (le, a -. b)) after before in
  let total = match List.rev d with (_, c) :: _ -> c | [] -> 0.0 in
  if total <= 0.0 then 0.0
  else
    match List.find_opt (fun (_, c) -> c >= q *. total) d with
    | Some (le, _) -> le
    | None -> Float.infinity

(* ------------------------------------------------------------------ *)
(* Spans recorded by the benchmark around its calls into each layer. They
   stay in memory and are written out as Chrome trace events at the end. *)

type span = { name : string; t0 : float; t1 : float }

let spans : span array ref = ref [||]
let nspans = ref 0
let tracing = ref false

let span name t0 t1 =
  if !tracing then begin
    if !nspans = Array.length !spans then begin
      let b = Array.make (max 1024 (2 * !nspans)) { name = ""; t0 = 0.0; t1 = 0.0 } in
      Array.blit !spans 0 b 0 !nspans;
      spans := b
    end;
    !spans.(!nspans) <- { name; t0; t1 };
    incr nspans
  end

let write_spans path =
  let oc = open_out path in
  output_string oc "{\"traceEvents\":[";
  for i = 0 to !nspans - 1 do
    let s = !spans.(i) in
    Printf.fprintf oc "%s{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f}"
      (if i = 0 then "" else ",")
      s.name (s.t0 *. 1e6) ((s.t1 -. s.t0) *. 1e6)
  done;
  output_string oc "]}\n";
  close_out oc

(* ------------------------------------------------------------------ *)
(* Result *)

type metric = { name : string; value : float; unit : string }

type run = { metrics : metric list; attempted : int; failed : int; correct : bool }

let number x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

let result_line ~correct ~attempted ~failed metrics =
  let ms =
    List.map
      (fun m -> Printf.sprintf "%S:{\"value\":%s,\"unit\":%S}" m.name (number m.value) m.unit)
      metrics
  in
  Printf.sprintf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}" correct attempted
    failed (String.concat "," ms)

let hex_digest s = Digest.to_hex (Digest.string s)

(* The checkout's identity: the git commit when there is one, and always a
   hash of the program sources the benchmark built. *)
let source_hash () =
  let rec files dir =
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.concat_map (fun f ->
           let p = Filename.concat dir f in
           if Sys.is_directory p then files p
           else if Filename.check_suffix p ".ml" || Filename.check_suffix p ".mli" || f = "dune" then [ p ]
           else [])
  in
  let b = Buffer.create 4096 in
  List.iter
    (fun p -> Buffer.add_string b p; Buffer.add_string b (Digest.to_hex (Digest.file p)))
    (List.concat_map (fun d -> if Sys.file_exists d then files d else []) [ "lib"; "bin" ]);
  hex_digest (Buffer.contents b)

let git_commit () =
  try
    let ic = open_in ".git/HEAD" in
    let head = String.trim (input_line ic) in
    close_in ic;
    if String.length head > 5 && String.sub head 0 5 = "ref: " then begin
      let ref_path = Filename.concat ".git" (String.sub head 5 (String.length head - 5)) in
      let ic = open_in ref_path in
      let c = String.trim (input_line ic) in
      close_in ic;
      c
    end
    else head
  with Sys_error _ | End_of_file -> "none"

let host_hash () =
  let read p = try In_channel.with_open_bin p In_channel.input_all with Sys_error _ -> "" in
  let model =
    String.split_on_char '\n' (read "/proc/cpuinfo")
    |> List.find_opt (fun l -> String.length l > 10 && String.sub l 0 10 = "model name")
    |> Option.value ~default:""
  in
  String.sub (hex_digest (Unix.gethostname () ^ model)) 0 12
