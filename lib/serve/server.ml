module Rng = Stratrec_util.Rng

type transport = Unix_socket of string | Tcp of string * int

(* Per-connection line splitting. [discarding] is the oversized-line
   guard: once the unterminated prefix outgrows the daemon's line limit
   we stop buffering, skip to the next newline, and report one drop —
   bounded memory under any input. Exposed as a module so the guard is
   unit-testable without a socket. *)
module Lines = struct
  type t = { buf : Buffer.t; mutable discarding : bool }

  let create () = { buf = Buffer.create 256; discarding = false }

  (* Append [chunk.[start, stop)], which holds no newline, unless that
     takes the buffer past [max_line]: then the discard starts. *)
  let segment t ~max_line chunk start stop =
    if (not t.discarding) && stop > start then
      if stop - start > max_line - Buffer.length t.buf then begin
        Buffer.clear t.buf;
        t.discarding <- true
      end
      else Buffer.add_substring t.buf chunk start (stop - start)

  (* Newlines are found by search, and the bytes between two are copied
     as one segment. *)
  let rec split t ~max_line chunk start lines dropped =
    match String.index_from_opt chunk start '\n' with
    | None ->
        segment t ~max_line chunk start (String.length chunk);
        (List.rev lines, dropped)
    | Some stop when (not t.discarding) && Buffer.length t.buf = 0 && stop - start <= max_line ->
        (* the whole line is in this chunk: one copy *)
        split t ~max_line chunk (stop + 1) (String.sub chunk start (stop - start) :: lines) dropped
    | Some stop ->
        segment t ~max_line chunk start stop;
        if t.discarding then begin
          t.discarding <- false;
          split t ~max_line chunk (stop + 1) lines (dropped + 1)
        end
        else begin
          let line = Buffer.contents t.buf in
          Buffer.clear t.buf;
          split t ~max_line chunk (stop + 1) (line :: lines) dropped
        end

  let feed t ~max_line chunk = split t ~max_line chunk 0 [] 0
end

(* The pluggable byte layer under every socket read and write. The
   default is plain [Unix.read]/[Unix.write_substring]; [faulty] wraps
   them with seeded fault injection so the chaos tests can drive the
   real select loop and line pump through partial writes, EINTR, EPIPE,
   slow-loris dribble and mid-line disconnects — deterministically. *)
module Io = struct
  type t = {
    read : Unix.file_descr -> bytes -> int -> int -> int;
    write : Unix.file_descr -> bytes -> int -> int -> int;
  }

  let default = { read = Unix.read; write = Unix.write }

  type faults = {
    partial_write : float;  (** write only half the requested bytes *)
    eintr : float;  (** raise [EINTR] instead of transferring *)
    epipe : float;  (** raise [EPIPE] on write *)
    dribble : float;  (** read one byte at a time (slow-loris) *)
    disconnect : float;  (** read 0 — peer gone mid-line *)
  }

  let no_faults =
    { partial_write = 0.; eintr = 0.; epipe = 0.; dribble = 0.; disconnect = 0. }

  let faulty ~rng faults =
    let hit p = p > 0. && Rng.bernoulli rng ~p in
    let read fd buf off len =
      if hit faults.eintr then raise (Unix.Unix_error (Unix.EINTR, "read", ""))
      else if hit faults.disconnect then 0
      else
        let len = if hit faults.dribble then Stdlib.min 1 len else len in
        Unix.read fd buf off len
    in
    let write fd data off len =
      if hit faults.eintr then raise (Unix.Unix_error (Unix.EINTR, "write", ""))
      else if hit faults.epipe then raise (Unix.Unix_error (Unix.EPIPE, "write", ""))
      else
        let len = if hit faults.partial_write && len > 1 then (len + 1) / 2 else len in
        Unix.write fd data off len
    in
    { read; write }
end

type conn = {
  fd : Unix.file_descr;
  id : int;
  lines : Lines.t;
  out : Buffer.t;  (** rendered responses the kernel has not taken yet *)
  mutable open_ : bool;
  mutable reading : bool;  (** false once the peer stopped sending *)
}

let ignore_sigpipe () =
  match Sys.os_type with
  | "Unix" -> ( try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ())
  | _ -> ()

let io_kind ~fallback = function
  | Unix.EPIPE -> "epipe"
  | Unix.ECONNRESET -> "econnreset"
  | _ -> fallback

(* Idempotent: [open_] is the single source of truth, so a second close
   (e.g. read error then sweep at shutdown) never double-closes an fd
   that may have been reused meanwhile. *)
let close_conn conn =
  if conn.open_ then begin
    conn.open_ <- false;
    Buffer.reset conn.out;
    try Unix.close conn.fd with Unix.Unix_error _ -> ()
  end

(* Hand the kernel as much of the queue as it takes without blocking.
   EINTR is a retry and EAGAIN leaves the rest queued for a later turn;
   any other error drops this peer's output (the epoch still runs for
   everyone else) and is reported to [on_error] with its kind. The queue
   is blitted into [scratch], the server's one write buffer, grown to
   the largest queue flushed so far: a flush allocates nothing. A copy
   of each queue larger than 2 KiB would go straight to the major heap,
   and the major GC slices collecting it lengthen the latency tail. For
   the same reason a fully flushed queue keeps its storage for the next
   turn, unless it held more than [max_line] bytes: a lagging reader's
   burst, which is handed back. *)
let flush_queue ~io ~scratch ~max_line ~on_error conn =
  let len = Buffer.length conn.out in
  if conn.open_ && len > 0 then begin
    if Bytes.length !scratch < len then scratch := Bytes.create (max len (2 * Bytes.length !scratch));
    let data = !scratch in
    Buffer.blit conn.out 0 data 0 len;
    let rec go off =
      if off >= len then Some off
      else
        match io.Io.write conn.fd data off (len - off) with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> Some off
        | exception Unix.Unix_error (err, _, _) ->
            on_error (io_kind ~fallback:"write" err);
            None
        | n -> go (off + n)
    in
    match go 0 with
    | None -> close_conn conn
    | Some sent when sent = len ->
        if len > max_line then Buffer.reset conn.out else Buffer.clear conn.out
    | Some sent ->
        Buffer.clear conn.out;
        Buffer.add_subbytes conn.out data sent (len - sent)
  end

(* A peer whose unsent output outgrows this many maximal lines (1 MiB
   at the default line limit) is not reading: it is evicted rather than
   left to hold memory. *)
let queued_lines_bound = 16

let oversized_error =
  Protocol.render (Protocol.Error_ { reason = "line too long: discarded" })

let fd_limit_error =
  Protocol.render
    (Protocol.Error_ { reason = "too many connections: descriptor beyond the select limit" })

(* [select] watches descriptors below FD_SETSIZE only; for any other it
   fails with EINVAL before waiting, so a zero-timeout probe tells. *)
let selectable fd =
  match Unix.select [ fd ] [] [] 0. with
  | _ -> true
  | exception Unix.Unix_error (Unix.EINVAL, _, _) -> false
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> true

let bind_socket transport =
  match transport with
  | Unix_socket path ->
      if Sys.file_exists path then ( try Unix.unlink path with Unix.Unix_error _ -> ());
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind fd (Unix.ADDR_UNIX path);
      fd
  | Tcp (host, port) ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      let addr = try Unix.inet_addr_of_string host with Failure _ -> Unix.inet_addr_loopback in
      Unix.bind fd (Unix.ADDR_INET (addr, port));
      fd

let serve ~daemon ?(io = Io.default) transport =
  ignore_sigpipe ();
  match bind_socket transport with
  | exception Unix.Unix_error (err, _, _) ->
      Error (Printf.sprintf "cannot bind: %s" (Unix.error_message err))
  | listen_fd -> (
      Unix.listen listen_fd 16;
      Unix.set_nonblock listen_fd;
      let max_line = Daemon.max_line daemon in
      let bound = queued_lines_bound * max_line in
      let note kind = Daemon.note_io_error daemon ~kind in
      let flush = flush_queue ~io ~scratch:(ref (Bytes.create 4096)) ~max_line ~on_error:note in
      let conns = Hashtbl.create 16 and next_id = ref 1 and running = ref true in
      let chunk = Bytes.create 4096 in
      (* A queue past the bound gets one flush, and a peer still over it
         after that is evicted. *)
      let bound_queue conn =
        if Buffer.length conn.out > bound then begin
          flush conn;
          if conn.open_ && Buffer.length conn.out > bound then begin
            note "slow-consumer";
            close_conn conn
          end
        end
      in
      let enqueue conn data =
        if conn.open_ then begin
          Buffer.add_string conn.out data;
          bound_queue conn
        end
      in
      (* Each response is rendered straight into its connection's queue. *)
      let send responses =
        List.iter
          (fun (client, response) ->
            match Hashtbl.find_opt conns client with
            | Some conn when conn.open_ ->
                Protocol.render_into conn.out response;
                bound_queue conn
            | Some _ | None -> ())
          responses
      in
      let accept () =
        match Unix.accept listen_fd with
        | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
        | exception Unix.Unix_error _ -> note "accept"
        | fd, _ ->
            Unix.set_nonblock fd;
            if selectable fd then begin
              let conn =
                {
                  fd;
                  id = !next_id;
                  lines = Lines.create ();
                  out = Buffer.create 4096;
                  open_ = true;
                  reading = true;
                }
              in
              incr next_id;
              Hashtbl.replace conns conn.id conn
            end
            else begin
              note "fd-limit";
              (try
                 ignore
                   (io.Io.write fd (Bytes.unsafe_of_string fd_limit_error) 0
                      (String.length fd_limit_error))
               with Unix.Unix_error _ -> ());
              try Unix.close fd with Unix.Unix_error _ -> ()
            end
      in
      let read conn =
        match io.Io.read conn.fd chunk 0 (Bytes.length chunk) with
        | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
            (* interrupted, not gone: retry next round *)
            ()
        | exception Unix.Unix_error (err, _, _) ->
            note (io_kind ~fallback:"read" err);
            close_conn conn
        | 0 -> conn.reading <- false
        | n ->
            let lines, dropped = Lines.feed conn.lines ~max_line (Bytes.sub_string chunk 0 n) in
            Daemon.note_oversized daemon dropped;
            for _ = 1 to dropped do
              enqueue conn oversized_error
            done;
            List.iter
              (fun line ->
                if !running then begin
                  let responses, verdict = Daemon.handle_line daemon ~client:conn.id line in
                  send responses;
                  match verdict with `Continue -> () | `Stop -> running := false
                end)
              lines
      in
      (* End of a turn: one flush per connection with queued output, then
         drop the closed ones and close peers that stopped sending once
         everything they are owed has gone out. *)
      let end_turn () =
        Hashtbl.iter (fun _ conn -> flush conn) conns;
        Hashtbl.filter_map_inplace
          (fun _ conn ->
            if conn.open_ && (not conn.reading) && Buffer.length conn.out = 0 then
              close_conn conn;
            if conn.open_ then Some conn else None)
          conns
      in
      let pending () =
        Hashtbl.fold
          (fun _ conn fds -> if Buffer.length conn.out > 0 then conn.fd :: fds else fds)
          conns []
      in
      (* After shutdown: keep flushing until every queue drains or the
         daemon's drain budget runs out. *)
      let drain_output () =
        let deadline = Unix.gettimeofday () +. Daemon.drain_timeout daemon in
        let rec go () =
          let writers = pending () and left = deadline -. Unix.gettimeofday () in
          if writers <> [] && left > 0. then begin
            (match Unix.select [] writers [] left with
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
            | _ -> end_turn ());
            go ()
          end
        in
        go ()
      in
      (try
         while !running do
           let readers =
             Hashtbl.fold
               (fun _ conn fds -> if conn.reading then conn.fd :: fds else fds)
               conns [ listen_fd ]
           in
           match Unix.select readers (pending ()) [] 1.0 with
           | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
           | readable, _, _ ->
               if List.mem listen_fd readable then accept ();
               Hashtbl.fold
                 (fun _ conn ready -> if List.mem conn.fd readable then conn :: ready else ready)
                 conns []
               |> List.sort (fun a b -> Int.compare a.id b.id)
               |> List.iter (fun conn -> if !running && conn.open_ then read conn);
               end_turn ()
         done;
         drain_output ();
         Ok ()
       with Unix.Unix_error (err, fn, _) ->
         Error (Printf.sprintf "socket error in %s: %s" fn (Unix.error_message err)))
      |> fun result ->
      Hashtbl.iter (fun _ conn -> close_conn conn) conns;
      (try Unix.close listen_fd with Unix.Unix_error _ -> ());
      (match transport with
      | Unix_socket path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
      | Tcp _ -> ());
      result)

let run_stdio ~daemon ic oc =
  let rec go () =
    match input_line ic with
    | exception End_of_file -> ()
    | line ->
        let responses, verdict = Daemon.handle_line daemon ~client:0 line in
        List.iter (fun (_, response) -> output_string oc (Protocol.render response)) responses;
        flush oc;
        (match verdict with `Continue -> go () | `Stop -> ())
  in
  go ()

let connect_socket transport =
  match transport with
  | Unix_socket path ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX path);
      fd
  | Tcp (host, port) ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      let addr = try Unix.inet_addr_of_string host with Failure _ -> Unix.inet_addr_loopback in
      Unix.connect fd (Unix.ADDR_INET (addr, port));
      fd

(* Pump channel lines to a connected fd and stream responses back until
   the peer closes. Input and output are multiplexed with select so a
   response-heavy server can't deadlock a write-heavy client. EINTR on
   either direction is retried; a real error closes the fd and comes
   back typed. Factored out of [client] so tests can drive it over a
   socketpair, with or without an injected faulty [io]. *)
let pump ?(io = Io.default) fd ic oc =
  let chunk = Bytes.create 4096 in
  let input_open = ref true and server_open = ref true in
  try
    while !server_open do
      (* send one pending line, then poll the socket; stdin here is
         a channel (possibly a file), so reads never block long *)
      if !input_open then begin
        match input_line ic with
        | exception End_of_file ->
            input_open := false;
            (try Unix.shutdown fd Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ())
        | line ->
            let data = Bytes.unsafe_of_string (line ^ "\n") in
            let len = Bytes.length data in
            let rec go off =
              if off < len then
                match io.Io.write fd data off (len - off) with
                | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
                | n -> go (off + n)
            in
            go 0
      end;
      let timeout = if !input_open then 0.01 else 1.0 in
      match Unix.select [ fd ] [] [] timeout with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | [], _, _ -> ()
      | _ -> (
          match io.Io.read fd chunk 0 (Bytes.length chunk) with
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
          | 0 -> server_open := false
          | n -> output_string oc (Bytes.sub_string chunk 0 n))
    done;
    flush oc;
    (try Unix.close fd with Unix.Unix_error _ -> ());
    Ok ()
  with Unix.Unix_error (err, fn, _) ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    Error (Printf.sprintf "socket error in %s: %s" fn (Unix.error_message err))

let client transport ic oc =
  ignore_sigpipe ();
  match connect_socket transport with
  | exception Unix.Unix_error (err, _, _) ->
      Error (Printf.sprintf "cannot connect: %s" (Unix.error_message err))
  | fd -> pump fd ic oc
