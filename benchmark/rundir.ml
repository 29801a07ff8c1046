(* Scratch space for one run's files (member logs and results, probe
   files), under _gmpbench/ in the working directory, so a run reads and
   writes nothing outside its checkout. *)

let root = "_gmpbench"

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let counter = ref 0
let open_dirs = ref []

(* Remove a run directory, and the root too once it is empty. *)
let remove dir =
  open_dirs := List.filter (( <> ) dir) !open_dirs;
  rm_rf dir;
  try if Sys.readdir root = [||] then Sys.rmdir root with Sys_error _ -> ()

(* A run stopped by a signal still leaves nothing behind. *)
let () = at_exit (fun () -> List.iter remove !open_dirs)

let create tag =
  if not (Sys.file_exists root) then Sys.mkdir root 0o755;
  incr counter;
  let dir =
    Filename.concat root
      (Printf.sprintf "%s-%d-%d" tag (Unix.getpid ()) !counter)
  in
  rm_rf dir;
  Sys.mkdir dir 0o755;
  open_dirs := dir :: !open_dirs;
  dir

let with_dir tag f =
  let dir = create tag in
  Fun.protect ~finally:(fun () -> remove dir) (fun () -> f dir)
