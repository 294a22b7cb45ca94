(* The response oracle: an in-process reference [Server] with the
   workload's config answers each distinct request once, and every timed
   response must equal that answer byte for byte once the envelope ([id],
   [ctx]) is stripped. Routed responses are checked against the same
   direct answers, which is the routed = direct contract. *)

module Wire = Rvu_obs.Wire
module Wb = Rvu_service.Wire_bin
module Server = Rvu_service.Server

type outcome = Ok_body | Overloaded | Timeout | Error_body | Malformed

(* Offset of the first member after the envelope, and what it is. *)
let body wire msg =
  match wire with
  | Wb.Json ->
      let n = String.length msg in
      let rec skip_id i = if i < n && msg.[i] <> ',' then skip_id (i + 1) else i + 1 in
      let p = skip_id 0 in
      let ctx = "\"ctx\":\"" in
      let lc = String.length ctx in
      let p =
        if p + lc <= n && String.sub msg p lc = ctx then
          match String.index_from_opt msg (p + lc) '"' with Some q -> q + 2 | None -> n
        else p
      in
      let starts lit = p + String.length lit <= n && String.sub msg p (String.length lit) = lit in
      if starts "\"ok\":" then (p, Ok_body)
      else if starts "\"error\":" then
        let code c =
          let pat = "\"code\":\"" ^ c ^ "\"" in
          let lp = String.length pat in
          let rec find i = i + lp <= n && (String.sub msg i lp = pat || find (i + 1)) in
          find p
        in
        (p, if code "overloaded" then Overloaded else if code "timeout" then Timeout else Error_body)
      else (p, Malformed)
  | Wb.Binary -> (
      let found = ref None in
      match
        Wb.iter_members msg (fun kp kl vs ve ->
            if !found = None && not (Wb.key_is msg kp kl "id" || Wb.key_is msg kp kl "ctx") then
              found := Some (kp, kl, vs, ve))
      with
      | exception _ -> (0, Malformed)
      | () -> (
          match !found with
          | Some (kp, kl, _, _) when Wb.key_is msg kp kl "ok" -> (kp, Ok_body)
          | Some (kp, kl, vs, ve) when Wb.key_is msg kp kl "error" ->
              let code =
                match Wb.decode_span msg ~pos:vs ~len:(ve - vs) with
                | Ok e -> Wire.member "code" e
                | Error _ -> None
              in
              ( kp,
                match code with
                | Some (Wire.String "overloaded") -> Overloaded
                | Some (Wire.String "timeout") -> Timeout
                | _ -> Error_body )
          | _ -> (0, Malformed)))

let same_tail msg off expected =
  let n = String.length expected in
  String.length msg - off = n
  &&
  let rec go i = i >= n || (String.unsafe_get msg (off + i) = String.unsafe_get expected i && go (i + 1)) in
  go 0

type t = {
  wire : Wb.mode;
  config : Server.config;
  render : int -> Workloads.rendered;
  expected : (int, string) Hashtbl.t;  (** key id -> stripped body *)
}

let create ~wire ~config ~render = { wire; config; render; expected = Hashtbl.create 1024 }

(* Answer every not-yet-known key once, [queue_depth] at a time so the
   reference server never sheds. *)
let learn o keys =
  let todo = List.sort_uniq compare (List.filter (fun k -> not (Hashtbl.mem o.expected k)) keys) in
  if todo <> [] then begin
    let server = Server.create ~config:o.config () in
    let lock = Mutex.create () in
    let got = Hashtbl.create (List.length todo) in
    let rec chunks = function
      | [] -> ()
      | l ->
          let rec take n acc = function
            | x :: rest when n > 0 -> take (n - 1) (x :: acc) rest
            | rest -> (acc, rest)
          in
          let now, rest = take o.config.queue_depth [] l in
          List.iter
            (fun k ->
              let respond r =
                Mutex.lock lock;
                Hashtbl.replace got k r;
                Mutex.unlock lock
              in
              let p = Workloads.payload o.wire (o.render k) ~id:1 in
              match o.wire with
              | Wb.Json -> Server.handle_line server p ~respond
              | Wb.Binary -> Server.handle_payload server p ~respond)
            now;
          Server.wait_idle server;
          chunks rest
    in
    chunks todo;
    Server.stop server;
    Hashtbl.iter
      (fun k r ->
        match body o.wire r with
        | off, Ok_body -> Hashtbl.replace o.expected k (String.sub r off (String.length r - off))
        | _ -> failwith (Printf.sprintf "oracle: reference server failed key %d: %s" k r))
      got
  end

(* Response codes, counted per phase by the load generator. *)
let ok = 0
let overloaded = 1
let timeout = 2
let error = 3
let mismatch = 4

let report_mismatch k msg =
  Printf.eprintf "perfbench: oracle mismatch on key %d: %s\n%!" k (String.escaped msg)

(* Judge one response to key [k]: [Some code], or [None] when the key is
   not learned yet (the caller keeps the message and settles it later). *)
let judge o k msg =
  match body o.wire msg with
  | off, Ok_body -> (
      match Hashtbl.find_opt o.expected k with
      | None -> None
      | Some exp ->
          if same_tail msg off exp then Some ok
          else begin
            report_mismatch k msg;
            Some mismatch
          end)
  | _, Overloaded -> Some overloaded
  | _, Timeout -> Some timeout
  | _, (Error_body | Malformed) ->
      Printf.eprintf "perfbench: error response: %s\n%!" (String.escaped msg);
      Some error

let codes = 5

type tally = {
  ok : int;
  overloaded : int;
  timeouts : int;
  errors : int;
  missing : int;
  mismatches : int;
}

(* [by_code] counts answered requests by code; the rest of [attempted]
   never got an answer. *)
let tally by_code ~attempted =
  {
    ok = by_code.(ok);
    overloaded = by_code.(overloaded);
    timeouts = by_code.(timeout);
    errors = by_code.(error);
    mismatches = by_code.(mismatch);
    missing = attempted - Array.fold_left ( + ) 0 by_code;
  }

let failed t = t.overloaded + t.timeouts + t.errors + t.missing + t.mismatches
