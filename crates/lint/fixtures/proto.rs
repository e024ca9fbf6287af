//! Seeded unsent reply code (semantic lint fixture — lexed and parsed,
//! never compiled). The codec half defines the typed reply vocabulary; the
//! station half at the bottom — an outside consumer — writes
//! `ErrorCode::…` for each code it can send.

pub enum ErrorCode {
    Busy,
    Unsent, //~ proto.error-reply
}

// ---- station half: `ErrorCode::Unsent` is never constructed ------------

pub fn handle(msg: Message) -> Message {
    match msg {
        Message::Ping => Message::Pong,
        other => refuse(ErrorCode::Busy),
    }
}
