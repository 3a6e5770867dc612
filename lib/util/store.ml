(* Append-only record log with a versioned header and CRC-per-record
   framing — the persistence substrate of the cross-run quantification
   cache.

   Layout:

     magic   "SDFTSTORE1\n"
     u32le   stamp length
     bytes   stamp (opaque version string; mismatch invalidates the file)
     record* where record = u32le payload length | u32le crc32(payload)
                          | payload bytes

   Readers walk the records sequentially and stop at the first frame that
   does not check out (short header, length past EOF, CRC mismatch): a
   truncated or torn tail yields exactly the records that were completely
   written, never garbage. The writer additionally truncates the file back
   to the last valid frame before appending, so one crash cannot grow a
   permanently skipped dead zone.

   Single-writer discipline: the first opener of a path (checked against
   both an OFD/POSIX file lock and an in-process registry, since POSIX
   locks do not conflict within one process) becomes the writer; everyone
   else degrades to a read-only snapshot of the flushed records. *)

type mode = Writer | Reader

type t = {
  path : string;
  mode : mode;
  batch : int;
  lock : Mutex.t;
  buf : Buffer.t;
  mutable pending : int;
  mutable fd : Unix.file_descr option; (* None once closed or broken *)
  mutable appended : int;
}

let magic = "SDFTSTORE1\n"

(* Standard CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320). *)
let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           if !c land 1 = 1 then c := 0xEDB88320 lxor (!c lsr 1)
           else c := !c lsr 1
         done;
         !c))

let crc32 s =
  let table = Lazy.force crc_table in
  let c = ref 0xFFFFFFFF in
  String.iter
    (fun ch -> c := table.((!c lxor Char.code ch) land 0xFF) lxor (!c lsr 8))
    s;
  !c lxor 0xFFFFFFFF

let add_u32le buf v =
  Buffer.add_char buf (Char.chr (v land 0xFF));
  Buffer.add_char buf (Char.chr ((v lsr 8) land 0xFF));
  Buffer.add_char buf (Char.chr ((v lsr 16) land 0xFF));
  Buffer.add_char buf (Char.chr ((v lsr 24) land 0xFF))

let read_u32le s off =
  Char.code s.[off]
  lor (Char.code s.[off + 1] lsl 8)
  lor (Char.code s.[off + 2] lsl 16)
  lor (Char.code s.[off + 3] lsl 24)

let frame payload =
  let buf = Buffer.create (String.length payload + 8) in
  add_u32le buf (String.length payload);
  add_u32le buf (crc32 payload);
  Buffer.add_string buf payload;
  Buffer.contents buf

let header stamp =
  let buf = Buffer.create (String.length magic + 4 + String.length stamp) in
  Buffer.add_string buf magic;
  add_u32le buf (String.length stamp);
  Buffer.add_string buf stamp;
  Buffer.contents buf

(* Walk the record region of [contents] starting at [off]; returns the
   records in file order together with the offset just past the last valid
   frame. *)
let parse_records contents off =
  let n = String.length contents in
  let rec go acc off =
    if off + 8 > n then (List.rev acc, off)
    else
      let len = read_u32le contents off in
      let crc = read_u32le contents (off + 4) in
      if len < 0 || off + 8 + len > n then (List.rev acc, off)
      else
        let payload = String.sub contents (off + 8) len in
        if crc32 payload <> crc then (List.rev acc, off)
        else go (payload :: acc) (off + 8 + len)
  in
  go [] off

(* [header_end contents stamp] is [Some off] when the file starts with a
   valid header carrying exactly [stamp]. *)
let header_end contents stamp =
  let m = String.length magic in
  if String.length contents < m + 4 then None
  else if String.sub contents 0 m <> magic then None
  else
    let slen = read_u32le contents m in
    if slen < 0 || String.length contents < m + 4 + slen then None
    else if String.sub contents (m + 4) slen <> stamp then None
    else Some (m + 4 + slen)

(* POSIX record locks are per-process: a second [lockf] on the same file
   from the same process silently succeeds. The registry gives the
   in-process half of the single-writer guarantee. *)
let writer_registry : (string, unit) Hashtbl.t = Hashtbl.create 4
let registry_lock = Mutex.create ()

let registry_key path =
  if Filename.is_relative path then Filename.concat (Sys.getcwd ()) path
  else path

let try_register path =
  Mutex.lock registry_lock;
  let fresh = not (Hashtbl.mem writer_registry path) in
  if fresh then Hashtbl.add writer_registry path ();
  Mutex.unlock registry_lock;
  fresh

let unregister path =
  Mutex.lock registry_lock;
  Hashtbl.remove writer_registry path;
  Mutex.unlock registry_lock

let read_all fd =
  let size = (Unix.fstat fd).Unix.st_size in
  ignore (Unix.lseek fd 0 Unix.SEEK_SET);
  let bytes = Bytes.create size in
  let rec fill off =
    if off < size then
      let n = Unix.read fd bytes off (size - off) in
      if n = 0 then off else fill (off + n)
    else off
  in
  let got = fill 0 in
  Bytes.sub_string bytes 0 got

let open_ ?(batch = 32) ~stamp path =
  Failpoint.hit_in Failpoint.default "store.open";
  let key = registry_key path in
  let as_writer = try_register key in
  if not as_writer then begin
    (* Another handle in this process owns the file: read-only snapshot. *)
    let records =
      match Unix.openfile path [ Unix.O_RDONLY ] 0 with
      | exception Unix.Unix_error (Unix.ENOENT, _, _) -> []
      | fd ->
        Fun.protect
          ~finally:(fun () -> Unix.close fd)
          (fun () ->
            let contents = read_all fd in
            match header_end contents stamp with
            | None -> []
            | Some off -> fst (parse_records contents off))
    in
    ( {
        path;
        mode = Reader;
        batch;
        lock = Mutex.create ();
        buf = Buffer.create 0;
        pending = 0;
        fd = None;
        appended = 0;
      },
      records )
  end
  else
    match Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT ] 0o644 with
    | exception e ->
      unregister key;
      raise e
    | fd -> (
      let locked =
        ignore (Unix.lseek fd 0 Unix.SEEK_SET);
        match Unix.lockf fd Unix.F_TLOCK 0 with
        | () -> true
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EACCES), _, _) ->
          false
      in
      if not locked then begin
        (* Another process holds the writer lock: degrade to a read-only
           snapshot of whatever it has flushed so far. *)
        unregister key;
        let result =
          Fun.protect
            ~finally:(fun () -> Unix.close fd)
            (fun () ->
              let contents = read_all fd in
              match header_end contents stamp with
              | None -> []
              | Some off -> fst (parse_records contents off))
        in
        ( {
            path;
            mode = Reader;
            batch;
            lock = Mutex.create ();
            buf = Buffer.create 0;
            pending = 0;
            fd = None;
            appended = 0;
          },
          result )
      end
      else
        match
          let contents = read_all fd in
          let records, valid_end =
            match header_end contents stamp with
            | Some off -> parse_records contents off
            | None ->
              (* Empty file, foreign contents or a version-stamp mismatch:
                 the file is ignored and rewritten under the current
                 stamp. *)
              ([], -1)
          in
          let hdr = header stamp in
          if valid_end < 0 then begin
            Unix.ftruncate fd 0;
            ignore (Unix.lseek fd 0 Unix.SEEK_SET);
            let n = Unix.write_substring fd hdr 0 (String.length hdr) in
            if n <> String.length hdr then failwith "short header write"
          end
          else if valid_end < String.length contents then
            (* Torn tail from a crashed writer: drop it so appends start at
               a clean frame boundary. *)
            Unix.ftruncate fd valid_end;
          ignore (Unix.lseek fd 0 Unix.SEEK_END);
          records
        with
        | records ->
          ( {
              path;
              mode = Writer;
              batch;
              lock = Mutex.create ();
              buf = Buffer.create 4096;
              pending = 0;
              fd = Some fd;
              appended = 0;
            },
            records )
        | exception e ->
          unregister key;
          (try Unix.close fd with Unix.Unix_error _ -> ());
          raise e)

let mode t = t.mode

let path t = t.path

let healthy t = t.mode = Writer && t.fd <> None

let appended t = t.appended

let write_all fd s =
  let n = String.length s in
  let rec go off =
    if off < n then go (off + Unix.write_substring fd s off (n - off))
  in
  go 0

let flush_locked t =
  match t.fd with
  | None -> ()
  | Some fd ->
    if Buffer.length t.buf > 0 then begin
      let data = Buffer.contents t.buf in
      Buffer.clear t.buf;
      t.pending <- 0;
      match write_all fd data with
      | () -> ()
      | exception e ->
        (* A failed write leaves the fd position unknown; stop using the
           file rather than risk interleaving garbage. The already-parsed
           in-memory state is unaffected. *)
        t.fd <- None;
        (try Unix.close fd with Unix.Unix_error _ -> ());
        unregister (registry_key t.path);
        raise e
    end

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let append t payload =
  Failpoint.hit_in Failpoint.default "store.append";
  locked t (fun () ->
      match t.fd with
      | None -> false
      | Some _ ->
        Buffer.add_string t.buf (frame payload);
        t.pending <- t.pending + 1;
        t.appended <- t.appended + 1;
        if t.pending >= t.batch then flush_locked t;
        true)

let flush t = locked t (fun () -> flush_locked t)

let close t =
  locked t (fun () ->
      match t.fd with
      | None -> ()
      | Some fd ->
        flush_locked t;
        (match t.fd with
        | None -> () (* flush failure already tore the handle down *)
        | Some _ ->
          t.fd <- None;
          (try Unix.close fd with Unix.Unix_error _ -> ());
          unregister (registry_key t.path)))
