(* The real stratrec-serve binary as a child process, and one
   line-oriented client connection to it over a Unix socket. *)

exception Failed of string

let fail fmt = Printf.ksprintf (fun m -> raise (Failed m)) fmt
let now = Unix.gettimeofday

(* --- /proc readers for the server process ------------------------- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* utime + stime in clock ticks (USER_HZ = 100 on Linux). Fields are
   counted after the parenthesised command name, which may hold spaces:
   the first one after it is field 3 (state), so utime (field 14) is
   index 11. *)
let cpu_seconds pid =
  let stat = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  let close = String.rindex stat ')' in
  let fields =
    Array.of_list
      (String.split_on_char ' ' (String.sub stat (close + 2) (String.length stat - close - 2)))
  in
  (float_of_string fields.(11) +. float_of_string fields.(12)) /. 100.

(* A "Key:   1234 kB" line of /proc/<pid>/status, in kB. *)
let status_kb pid key =
  let prefix = key ^ ":" in
  let lines = String.split_on_char '\n' (read_file (Printf.sprintf "/proc/%d/status" pid)) in
  match List.find_opt (String.starts_with ~prefix) lines with
  | None -> fail "no %s in /proc/%d/status" key pid
  | Some line ->
      Scanf.sscanf
        (String.sub line (String.length prefix) (String.length line - String.length prefix))
        " %f kB" Fun.id

(* --- buffered line reader with arrival stamps --------------------- *)

type conn = {
  fd : Unix.file_descr;
  buf : Bytes.t;
  mutable pos : int;
  mutable len : int;
  partial : Buffer.t;
  mutable stamp : float;  (** time the read completing the last line returned *)
}

let conn fd =
  { fd; buf = Bytes.create 65536; pos = 0; len = 0; partial = Buffer.create 256; stamp = 0. }

let write_all c s =
  let rec go off =
    if off < String.length s then
      match Unix.write_substring c.fd s off (String.length s - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

let fill c ~timeout =
  let rec wait () =
    match Unix.select [ c.fd ] [] [] timeout with
    | [], _, _ -> fail "no answer from the server within %.0f s" timeout
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  wait ();
  let n = Unix.read c.fd c.buf 0 (Bytes.length c.buf) in
  c.stamp <- now ();
  c.pos <- 0;
  c.len <- n;
  n

(* The next line without its newline; [None] at end of stream. *)
let read_line ?(timeout = 60.) c =
  let rec go () =
    if c.pos >= c.len && fill c ~timeout = 0 then
      if Buffer.length c.partial = 0 then None else fail "stream ended mid-line"
    else
      match Bytes.index_from_opt c.buf c.pos '\n' with
      | Some i when i < c.len ->
          let line =
            if Buffer.length c.partial = 0 then Bytes.sub_string c.buf c.pos (i - c.pos)
            else begin
              Buffer.add_subbytes c.partial c.buf c.pos (i - c.pos);
              let l = Buffer.contents c.partial in
              Buffer.clear c.partial;
              l
            end
          in
          c.pos <- i + 1;
          Some line
      | _ ->
          Buffer.add_subbytes c.partial c.buf c.pos (c.len - c.pos);
          c.pos <- c.len;
          go ()
  in
  go ()

let expect_line c =
  match read_line c with Some l -> l | None -> fail "server closed the connection"

(* --- server lifecycle --------------------------------------------- *)

type server = { pid : int; conn : conn; stderr_path : string; setup_seconds : float }

let live = ref []

let reap pid =
  let rec go () =
    match Unix.waitpid [] pid with
    | _, status -> status
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  let status = go () in
  live := List.filter (( <> ) pid) !live;
  status

(* Kill whatever is still running if the benchmark dies early. *)
let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (reap pid))
    !live

let () = at_exit kill_all

let exited pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> false
  | _ ->
      live := List.filter (( <> ) pid) !live;
      true

(* Spawn, dial until the socket accepts, and time the first pong: the
   span covers exec, catalog load, Daemon.create and bind. The runtime
   prints its allocation totals at exit (OCAMLRUNPARAM v=0x400). *)
let start ~exe ~catalog ~socket ~stderr_path =
  (try Sys.remove socket with Sys_error _ -> ());
  let env =
    Array.append [| "OCAMLRUNPARAM=v=0x400" |]
      (Array.of_list
         (List.filter
            (fun v -> not (String.starts_with ~prefix:"OCAMLRUNPARAM=" v))
            (Array.to_list (Unix.environment ()))))
  in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let err = Unix.openfile stderr_path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let t0 = now () in
  let pid =
    Unix.create_process_env exe
      [| exe; "--catalog"; catalog; "--socket"; socket |]
      env devnull devnull err
  in
  Unix.close devnull;
  Unix.close err;
  live := pid :: !live;
  let rec dial () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX socket) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED | Unix.EINTR), _, _) ->
        Unix.close fd;
        if exited pid then fail "server exited before binding (see %s)" stderr_path;
        if now () -. t0 > 60. then fail "server did not bind within 60 s";
        Unix.sleepf 0.0005;
        dial ()
  in
  let c = conn (dial ()) in
  write_all c "{\"op\":\"ping\"}\n";
  let pong = expect_line c in
  let setup_seconds = now () -. t0 in
  if pong <> {|{"ok":true,"status":"pong"}|} then fail "unexpected ping answer: %s" pong;
  { pid; conn = c; stderr_path; setup_seconds }

(* Shutdown, read to end of stream, reap; returns the exit statistics
   the runtime printed ("allocated_words: N", ...). *)
let stop s =
  write_all s.conn "{\"op\":\"shutdown\"}\n";
  let rec drain () = match read_line s.conn with Some _ -> drain () | None -> () in
  drain ();
  Unix.close s.conn.fd;
  (match reap s.pid with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED n -> fail "server exited with code %d" n
  | Unix.WSIGNALED n | Unix.WSTOPPED n -> fail "server killed by signal %d" n);
  List.filter_map
    (fun line ->
      match String.split_on_char ':' line with
      | [ key; value ] -> Option.map (fun v -> (key, v)) (float_of_string_opt (String.trim value))
      | _ -> None)
    (String.split_on_char '\n' (read_file s.stderr_path))

let stat stats key =
  match List.assoc_opt key stats with
  | Some v -> v
  | None -> fail "the server printed no %s at exit" key
