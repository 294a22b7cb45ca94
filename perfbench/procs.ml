(* Spawned serving processes: free ports, readiness, peak memory and
   cleanup on every exit path. *)

let children : int list ref = ref []

let kill_all () =
  let pids = !children in
  children := [];
  List.iter (fun pid -> try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ()) pids;
  List.iter
    (fun pid ->
      let rec reap () =
        try ignore (Unix.waitpid [] pid) with
        | Unix.Unix_error (Unix.EINTR, _, _) -> reap ()
        | Unix.Unix_error _ -> ()
      in
      reap ())
    pids

(* Children die with the benchmark however it ends: normal exit, an
   uncaught exception (which runs [at_exit]) or a terminating signal. *)
let install_cleanup () =
  at_exit kill_all;
  List.iter
    (fun s ->
      try Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 3))
      with Invalid_argument _ | Sys_error _ -> ())
    [ Sys.sigint; Sys.sigterm; Sys.sighup ];
  (* A dead peer must surface as EPIPE on write, not kill the process
     before cleanup runs. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore

let spawn argv =
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close null)
      (fun () -> Unix.create_process argv.(0) argv null null Unix.stderr)
  in
  children := pid :: !children;
  pid

let kill pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
  children := List.filter (( <> ) pid) !children

let loopback = Unix.inet_addr_loopback

(* A port the kernel reports free right now. [rvu serve --tcp 0] would
   print port 0, so the benchmark chooses ports itself. *)
let free_port () =
  let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close s)
    (fun () ->
      Unix.bind s (Unix.ADDR_INET (loopback, 0));
      match Unix.getsockname s with
      | Unix.ADDR_INET (_, p) -> p
      | Unix.ADDR_UNIX _ -> assert false)

let listening port =
  let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close s)
    (fun () ->
      try
        Unix.connect s (Unix.ADDR_INET (loopback, port));
        true
      with Unix.Unix_error _ -> false)

(* Block until [port] accepts a connection; the probe connection is closed
   at once (a serial [rvu serve] then moves on to the next accept). *)
let wait_listening ~pid port =
  let deadline = Unix.gettimeofday () +. 30.0 in
  let rec loop () =
    if listening port then ()
    else begin
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _ -> failwith (Printf.sprintf "process %d exited before listening on %d" pid port));
      if Unix.gettimeofday () > deadline then
        failwith (Printf.sprintf "nothing listens on port %d after 30 s" port);
      Unix.sleepf 0.002;
      loop ()
    end
  in
  loop ()

(* Peak resident memory of a live process, in MiB. *)
let vm_hwm_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%d/status" pid) in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec loop () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
                float_of_int kb /. 1024.0)
        | _ -> loop ()
        | exception End_of_file -> failwith "VmHWM missing from /proc status"
      in
      loop ())

(* Processes of this checkout's [rvu] binary still serving: a stray server
   from an earlier run would steal CPU from the measured ones. *)
let strays ~rvu =
  let exe = try Unix.realpath rvu with Unix.Unix_error _ -> rvu in
  Sys.readdir "/proc" |> Array.to_list
  |> List.filter_map (fun d ->
         match int_of_string_opt d with
         | None -> None
         | Some pid -> (
             try
               let target = Unix.readlink (Printf.sprintf "/proc/%d/exe" pid) in
               let ic = open_in_bin (Printf.sprintf "/proc/%d/cmdline" pid) in
               let cmd =
                 Fun.protect ~finally:(fun () -> close_in ic) (fun () -> In_channel.input_all ic)
               in
               let args = String.split_on_char '\000' cmd in
               if
                 target = exe
                 && (List.mem "serve" args || List.mem "router" args)
               then Some pid
               else None
             with Sys_error _ | Unix.Unix_error _ -> None))

(* A group of serving processes: the one clients talk to first. *)
type group = { port : int; pids : int list  (** serving processes *) }

let rvu_serve ~rvu ~port ~wire (c : Rvu_service.Server.config) =
  let argv =
    [
      rvu; "serve"; "--tcp"; string_of_int port; "--jobs"; string_of_int c.jobs;
      "--queue-depth"; string_of_int c.queue_depth; "--cache-entries";
      string_of_int c.cache_entries; "--max-request-bytes"; string_of_int c.max_request_bytes;
      "--wire"; Rvu_service.Wire_bin.mode_string wire;
    ]
  in
  spawn (Array.of_list argv)

(* Start the workload's topology and return once its client port listens.
   A routed cluster is a router over externally managed shards that the
   benchmark spawns itself, so every process is a direct child it can
   kill and reap. *)
let start ~rvu (w : Workloads.t) =
  let check port =
    if listening port then begin
      Printf.eprintf "perfbench: something already listens on port %d; refusing to run\n%!" port;
      exit 2
    end
  in
  match w.topology with
  | Workloads.Single ->
      let port = free_port () in
      check port;
      let pid = rvu_serve ~rvu ~port ~wire:w.wire w.config in
      wait_listening ~pid port;
      { port; pids = [ pid ] }
  | Workloads.Routed shards ->
      let ports = List.init shards (fun _ -> free_port ()) in
      let port = free_port () in
      List.iter check (port :: ports);
      let shard_pids =
        List.map (fun p -> rvu_serve ~rvu ~port:p ~wire:Rvu_service.Wire_bin.Json w.config) ports
      in
      List.iter2 (fun pid p -> wait_listening ~pid p) shard_pids ports;
      let argv =
        [ rvu; "router"; "--tcp"; string_of_int port; "--probe-interval-ms"; "250";
          "--restart-backoff-ms"; "500"; "--route-timeout-ms"; "30000";
          "--max-request-bytes"; string_of_int w.config.max_request_bytes; "--wire"; "json" ]
        @ List.concat_map (fun p -> [ "--connect"; Printf.sprintf "127.0.0.1:%d" p ]) ports
      in
      let rpid = spawn (Array.of_list argv) in
      wait_listening ~pid:rpid port;
      { port; pids = rpid :: shard_pids }

let stop g = List.iter kill g.pids
let rss_mb g = List.fold_left (fun acc pid -> acc +. vm_hwm_mb pid) 0.0 g.pids
