type t = {
  mutable sent : int;
  mutable delivered : int;
  mutable dropped_loss : int;
  mutable dropped_queue : int;
  mutable dropped_collision : int;
}

let create () =
  {
    sent = 0;
    delivered = 0;
    dropped_loss = 0;
    dropped_queue = 0;
    dropped_collision = 0;
  }
