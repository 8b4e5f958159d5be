//! The correctness oracle: replays closed sessions through an
//! in-process `Service` over the same seeded table and requires the
//! CSV transcript the server returned to match byte for byte.

use crate::drive::expected;
use crate::workload::Script;
use aware_data::table::Table;
use aware_serve::proto::{BatchMode, Command, Response};
use aware_serve::service::{Service, ServiceConfig};
use std::sync::Arc;

/// Sessions the reference replays in one batch. Each session is one
/// unit of the batch, and units of distinct sessions run on the
/// service's workers in parallel.
const SESSIONS_PER_BATCH: usize = 64;

/// The reference's final CSV transcript of one replayed session, or
/// why the replay itself failed.
fn reference_transcript(script: &Script, replies: &[Response]) -> Result<String, String> {
    let mut transcript = None;
    for (cmd, r) in script.cmds.iter().zip(replies) {
        if !expected(cmd, r) {
            return Err(format!("reference: {} got {:?}", cmd.name(), r));
        }
        if let (Command::Transcript { .. }, Response::TranscriptText { text, .. }) = (cmd, r) {
            transcript = Some(text.clone());
        }
    }
    transcript.ok_or_else(|| format!("session {} has no transcript", script.id))
}

fn reference(table: Arc<Table>) -> Service {
    let service = Service::start(ServiceConfig {
        workers: 2,
        sweep_interval: None,
        // A whole session goes in one batch.
        max_pending_per_session: usize::MAX,
        ..ServiceConfig::default()
    });
    service.handle().register_shared("census", table);
    service
}

/// Number of sessions whose server transcript differs from the
/// reference's, and the first difference.
pub fn check(table: Arc<Table>, sessions: &[(Script, String)]) -> (usize, Option<String>) {
    let service = reference(table);
    let handle = service.handle();
    let mut bad = 0;
    let mut first = None;
    for chunk in sessions.chunks(SESSIONS_PER_BATCH) {
        let cmds: Vec<Command> = chunk
            .iter()
            .flat_map(|(script, _)| script.cmds.iter().cloned())
            .collect();
        let replies = handle.call_batch_mode(cmds, BatchMode::Continue);
        let mut at = 0;
        for (script, served) in chunk {
            let mine = &replies[at..at + script.cmds.len()];
            at += script.cmds.len();
            let why = match reference_transcript(script, mine) {
                Ok(text) if &text == served => continue,
                Ok(text) => format!(
                    "session {}: transcript differs (served {} bytes, reference {} bytes)",
                    script.id,
                    served.len(),
                    text.len()
                ),
                Err(e) => e,
            };
            bad += 1;
            first.get_or_insert(why);
        }
    }
    service.shutdown();
    (bad, first)
}

/// The oracle's negative control: a reference built from another seed
/// must reject a served transcript that tested hypotheses. True when
/// it does.
pub fn rejects_other_seed(other: Arc<Table>, sessions: &[(Script, String)]) -> bool {
    let Some(probe) = sessions
        .iter()
        .find(|(_, text)| text.lines().filter(|l| l.contains(",tested,")).count() >= 2)
    else {
        return false;
    };
    check(other, std::slice::from_ref(probe)).0 == 1
}
