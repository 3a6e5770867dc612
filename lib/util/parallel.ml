let map_init ~domains init f work =
  let n = Array.length work in
  if n = 0 then [||]
  else if domains <= 1 then begin
    let state = init () in
    Array.map (f state) work
  end
  else begin
    let results = Array.make n None in
    let next = Atomic.make 0 in
    (* First worker exception wins; everyone else drains and exits. *)
    let failure :
        (exn * Printexc.raw_backtrace) option Atomic.t =
      Atomic.make None
    in
    let fail exn bt =
      ignore (Atomic.compare_and_set failure None (Some (exn, bt)))
    in
    let worker () =
      match init () with
      | exception exn -> fail exn (Printexc.get_raw_backtrace ())
      | state ->
        let continue = ref true in
        while !continue do
          if Atomic.get failure <> None then continue := false
          else begin
            let i = Atomic.fetch_and_add next 1 in
            if i >= n then continue := false
            else
              match f state work.(i) with
              | r -> results.(i) <- Some r
              | exception exn -> fail exn (Printexc.get_raw_backtrace ())
          end
        done
    in
    let spawned =
      Array.init (domains - 1) (fun _ -> Domain.spawn worker)
    in
    worker ();
    Array.iter Domain.join spawned;
    match Atomic.get failure with
    | Some (exn, bt) -> Printexc.raise_with_backtrace exn bt
    | None ->
      Array.map
        (function
          | Some r -> r
          | None -> assert false (* no failure ⟹ every slot was filled *))
        results
  end

let map ~domains f work = map_init ~domains ignore (fun () x -> f x) work

(* Crash containment: the per-item wrapper turns an exception into an
   [Error] slot, so [map_init]'s first-failure machinery only ever sees
   [init] failures (which stay fatal — without per-domain state nothing can
   run). The scheduling, ordering and success results are exactly those of
   [map_init]. *)
let map_init_result ~domains init f work =
  map_init ~domains init
    (fun state x ->
      match
        (* Inside the capture, so an injected worker crash is contained in
           this slot like any other [f] failure. *)
        Failpoint.hit_in Failpoint.default "parallel.worker";
        f state x
      with
      | r -> Ok r
      | exception exn -> Error (exn, Printexc.get_raw_backtrace ()))
    work
