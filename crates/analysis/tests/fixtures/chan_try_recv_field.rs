//! Clean fixture: a receiver kept in a struct field and drained with
//! `try_recv()` while a lock is held. The model pairs the drain with the
//! field's `mpsc::channel()` site and the spawned sender, and does not
//! count `try_recv()` as blocking — so neither C2 nor C3 fires.

use std::sync::{mpsc, Mutex};
use std::thread;

pub struct Engine {
    rx: mpsc::Receiver<u64>,
    total: Mutex<u64>,
}

impl Engine {
    pub fn new() -> Self {
        let (tx, rx) = mpsc::channel();
        thread::spawn(move || {
            let _ = tx.send(7);
        });
        Engine {
            rx,
            total: Mutex::new(0),
        }
    }

    pub fn drain(&self) {
        let mut total = self.total.lock();
        while let Ok(v) = self.rx.try_recv() {
            *total += v;
        }
    }
}
