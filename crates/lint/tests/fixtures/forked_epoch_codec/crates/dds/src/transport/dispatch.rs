use crate::proto::{Reply, Request};

pub fn handle(request: Request) -> Reply {
    match request {
        Request::Commit { .. } => Reply::Committed,
        Request::Advance { .. } => Reply::Committed,
    }
}
