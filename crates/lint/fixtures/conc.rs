//! Seeded `conc.hold-and-block` violations (lint fixture — lexed and
//! parsed, never compiled). The harness checks it under a serving-crate
//! path, the only place the rule runs.

pub struct Peers {
    peers: Mutex<Vec<Peer>>,
    frames_tx: SyncSender<Vec<u8>>,
}

impl Peers {
    /// Socket write while the peer table is still locked.
    pub fn broadcast(&self, frame: &[u8]) {
        let peers = self.peers.lock();
        for p in peers.iter() {
            p.write_all(frame); //~ conc.hold-and-block
        }
    }

    /// A blocking send on a full queue under the lock.
    pub fn enqueue(&self, frame: Vec<u8>) {
        let peers = self.peers.lock();
        self.frames_tx.send(frame); //~ conc.hold-and-block
        drop(peers);
    }

    /// Blocking before the lock, and `try_send` under it: both fine.
    pub fn offer(&self, frame: Vec<u8>) {
        self.frames_tx.send(frame.clone());
        let peers = self.peers.lock();
        let _ = self.frames_tx.try_send(frame);
    }

    /// Known miss: the blocking call sits in a helper called under the
    /// lock, and the rule reads one fn body at a time.
    pub fn relay(&self, frame: &[u8]) {
        let peers = self.peers.lock();
        write_each(&peers, frame);
    }
}

fn write_each(peers: &[Peer], frame: &[u8]) {
    for p in peers {
        p.write_all(frame);
    }
}
