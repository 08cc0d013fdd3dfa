//! The "only one" rules: each names something this repository defines
//! once and fails when a second one appears. They read code only: no
//! comment line, nothing from a file's first top-level `#[cfg(test)]` on,
//! and never a `testutil.rs`, where the test doubles (and the chaos
//! proxy's socket pumps) live. Beside them, the knob census counts the
//! settings the configuration structs expose.

use std::fs;
use std::path::Path;

/// One source file as the rules read it: its path from the repository
/// root, and its code lines with their line numbers.
struct Source {
    path: String,
    lines: Vec<(usize, String)>,
}

impl Source {
    fn names(&self, word: &str) -> bool {
        self.lines.iter().any(|(_, line)| names_word(line, word))
    }

    fn contains(&self, text: &str) -> bool {
        self.lines.iter().any(|(_, line)| line.contains(text))
    }
}

/// Every `.rs` file at or under `paths` (from the repository root), in
/// path order.
fn sources(paths: &[&str]) -> Vec<Source> {
    fn walk(path: &Path, out: &mut Vec<std::path::PathBuf>) {
        if path.extension().is_some_and(|e| e == "rs") {
            out.push(path.to_path_buf());
        }
        for entry in fs::read_dir(path).into_iter().flatten().flatten() {
            walk(&entry.path(), out);
        }
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for path in paths {
        walk(&root.join(path), &mut files);
    }
    files.sort();
    let code = |text: &str| {
        let lines = text.lines().enumerate().map(|(i, line)| (i + 1, line));
        lines
            .take_while(|(_, line)| !line.starts_with("#[cfg(test)]"))
            .filter(|(_, line)| !line.trim_start().starts_with("//"))
            .map(|(i, line)| (i, line.to_string()))
            .collect()
    };
    files
        .into_iter()
        .filter(|path| !path.ends_with("testutil.rs"))
        .map(|path| Source {
            lines: code(&fs::read_to_string(&path).expect("a readable source file")),
            path: path.strip_prefix(root).expect("under the root").display().to_string(),
        })
        .collect()
}

/// Every `crates/*/src` directory.
fn crate_sources() -> Vec<Source> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut crates: Vec<String> = fs::read_dir(root.join("crates"))
        .expect("crates/")
        .flatten()
        .map(|entry| format!("crates/{}/src", entry.file_name().to_string_lossy()))
        .collect();
    crates.sort();
    sources(&crates.iter().map(String::as_str).collect::<Vec<_>>())
}

/// Whether `line` names `word` as a whole identifier.
fn names_word(line: &str, word: &str) -> bool {
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    line.match_indices(word).any(|(at, _)| {
        let before = line[..at].chars().next_back();
        let after = line[at + word.len()..].chars().next();
        !before.is_some_and(ident) && !after.is_some_and(ident)
    })
}

fn paths<'s>(files: impl IntoIterator<Item = &'s Source>) -> Vec<&'s str> {
    files.into_iter().map(|s| s.path.as_str()).collect()
}

/// One driver shell. Remote sources implement `Source` and are served
/// through `kleisli_core::Remote`; a crate outside `crates/core` naming
/// the pool is hand-wiring a second shell.
#[test]
fn one_driver_shell() {
    let all = crate_sources();
    let wiring = all
        .iter()
        .filter(|s| !s.path.starts_with("crates/core/") && s.names("WorkerPool"));
    assert_eq!(paths(wiring), Vec::<&str>::new());
}

/// One thread lifecycle. Driver pools are private `Executor`s; a second
/// `thread::Builder` or `thread::spawn` under `crates/core/src` is a second
/// scheduler.
#[test]
fn one_thread_lifecycle() {
    let core = sources(&["crates/core/src"]);
    let spawning = core
        .iter()
        .filter(|s| s.contains("thread::Builder") || s.contains("thread::spawn"));
    assert_eq!(paths(spawning), ["crates/core/src/executor.rs"]);
}

/// One waiting room. A caller waits for another caller's result only in
/// `core::oneshot` (`core::flight::SingleFlight` and `batch::Flight` park
/// in `OneShot::wait_for`). A condition variable anywhere else parks a
/// thread on a *queue* — executor workers, `RowBuf`, the server's writer
/// queue and query cells, testutil's latches; a new file naming one, or
/// a second timed wait, is a second waiting room. The one other timed
/// wait is the server's drain, on a connection's query cell until it is
/// empty: it waits for a count under the drain's deadline, not for a
/// result.
#[test]
fn one_waiting_room() {
    let all = crate_sources();
    let queues = [
        "crates/core/src/oneshot.rs",
        "crates/core/src/executor.rs",
        "crates/core/src/pool.rs",
        "crates/server/src/server.rs",
    ];
    let condvars = all
        .iter()
        .filter(|s| s.names("Condvar") && !queues.contains(&s.path.as_str()));
    assert_eq!(paths(condvars), Vec::<&str>::new());
    let timed = all.iter().filter(|s| s.contains("wait_timeout"));
    assert_eq!(paths(timed), ["crates/core/src/oneshot.rs", "crates/server/src/server.rs"]);
}

/// No thread per query. An admitted query is a task on the shared
/// executor; the server spawns its accept, reader and writer threads and
/// nothing else, so every `thread::Builder` in `crates/server/src` names
/// one of the three, and a bare `thread::spawn` is a thread per something.
#[test]
fn no_thread_per_query() {
    const NAMES: [&str; 3] = ["kleislid-accept", "kleislid-conn-{id}", "kleislid-writer"];
    let named = |line: &str| NAMES.iter().any(|name| line.contains(name));
    let mut unnamed = Vec::new();
    for s in sources(&["crates/server/src"]) {
        for (at, (number, line)) in s.lines.iter().enumerate() {
            if !(line.contains("thread::Builder") || line.contains("thread::spawn")) {
                continue;
            }
            let naming = match line.ends_with("thread::Builder::new()") {
                true => s.lines.get(at + 1).map_or("", |(_, next)| next.as_str()),
                false => line.as_str(),
            };
            if !named(naming) {
                unnamed.push(format!("{}:{number}", s.path));
            }
        }
    }
    assert_eq!(unnamed, Vec::<String>::new());
}

/// One report. `report` takes its percentiles from `kbench::stats` and
/// builds its document as a `kbench::json::Json`; a second program beside
/// it, or a local percentile, timer or hand-rolled JSON string in it, is a
/// second definition of something the repository defines once.
#[test]
fn one_report() {
    let bins = sources(&["crates/bench/src/bin"]);
    assert_eq!(paths(&bins), ["crates/bench/src/bin/report.rs"]);
    let own = bins.iter().filter(|s| {
        ["fn percentile", "fn time_best_of", "format!(r#\"{{"]
            .iter()
            .any(|text| s.contains(text))
    });
    assert_eq!(paths(own), Vec::<&str>::new());
}

/// One scope. Which names a node binds over which child is stated once,
/// in `Expr::for_each_child_in_scope`; rules ask `occurs_free`,
/// `count_free`, `subst_shared` or walk the table. Under `crates/opt/src`
/// only `rules/joins.rs`, which builds `Join`s, may name their variables;
/// and the un-sharing copy that restated every variant is gone for good.
#[test]
fn one_scope() {
    let opt = sources(&["crates/opt/src"]);
    let binders = opt.iter().filter(|s| s.names("lvar") || s.names("rvar"));
    assert_eq!(paths(binders), ["crates/opt/src/rules/joins.rs"]);
    let copy = concat!("deep", "_clone");
    let everywhere = sources(&["crates", "src", "tests", "examples"]);
    let copies = everywhere.iter().filter(|s| s.contains(copy));
    assert_eq!(paths(copies), Vec::<&str>::new());
}

/// One shared cache. Both shared caches are a `kleisli_core::FlightCache`,
/// which keeps the one table of recently missed keys (`RecentMisses`,
/// private to `core::flight`); outside `crates/core` no code spreads keys
/// over slots with the golden-ratio multiplier or records a key into a
/// slot while comparing it, and only the per-query `Cached` slots of
/// `exec::Context` keep a map of `SingleFlight` cells of their own.
#[test]
fn one_shared_cache() {
    let all = crate_sources();
    let spread = |line: &str| {
        let digits: String = line.chars().filter(|c| *c != '_').collect();
        digits.to_ascii_lowercase().contains("9e3779b9")
    };
    let recorded = |line: &str| line.contains("mem::replace(") && line.contains(") ==");
    let declares = |s: &Source| s.lines.iter().any(|(_, l)| spread(l) || recorded(l));
    let tables = all
        .iter()
        .filter(|s| !s.path.starts_with("crates/core/") && declares(s));
    assert_eq!(paths(tables), Vec::<&str>::new());
    let users = all.iter().filter(|s| s.names("RecentMisses"));
    assert_eq!(paths(users), ["crates/core/src/flight.rs"]);
    let cells = all
        .iter()
        .filter(|s| !s.path.starts_with("crates/core/") && s.names("SingleFlight"));
    assert_eq!(paths(cells), ["crates/exec/src/context.rs"]);
}

/// One generator operator. Every operator of `exec::stream` is a
/// `BlockSource` that reads its input in the blocks its consumer asks for;
/// an operator that reads a row at a time through the grain-1 iterator
/// view (an `impl Iterator`, packed back into blocks by `blocks_of_rows`)
/// is a second copy of the chunk, overflow and error-ordering loop that
/// `Generate` states once.
#[test]
fn one_generator_operator() {
    let mut single_row = Vec::new();
    for s in sources(&["crates/exec/src"]) {
        for (number, line) in &s.lines {
            if line.contains("impl Iterator for") || line.contains("blocks_of_rows(") {
                single_row.push(format!("{}:{number}", s.path));
            }
        }
    }
    assert_eq!(single_row, Vec::<String>::new());
}

/// One loop node. How a loop runs its bodies — one after another,
/// batched, or `width` at once — is the `strategy` of `nrc::Expr::Ext`; a
/// second loop variant is a second arm in every IR walk, the type checker,
/// the printer, the hash and each evaluator, kept in step by hand.
#[test]
fn one_loop_node() {
    // Spelled in two halves, so that this file does not name it.
    let second = concat!("Par", "Ext");
    let all = sources(&["crates", "tests", "examples", "src"]);
    let naming = all.iter().filter(|s| s.names(second));
    assert_eq!(paths(naming), Vec::<&str>::new());
}

/// One caller-helps task. A task whose spawner waits for it, and runs it
/// inline if no worker has taken it, is a `core::executor::Awaited`: a
/// session's query (`Executor::spawn_awaited`) and each body of a parallel
/// loop's chunk (`Executor::run_all`) alike. The names below are the
/// second claim slot, batch list and parallel-loop arm this replaced.
#[test]
fn one_caller_helps_task() {
    let gone = ["QueryShared", "run_unclaimed", "drain_as", "eval_parallel", "Expand::Par"];
    let all = crate_sources();
    let naming = all.iter().filter(|s| gone.iter().any(|w| s.names(w)));
    assert_eq!(paths(naming), Vec::<&str>::new());
}

/// One request cell. A driver request's stage — queued work, a running
/// worker's admission ticket, or over — is one value under one lock in
/// `core::driver`, and a handle lets go of it by dropping or abandoning
/// it. The names below are the second slot, the flags and the second
/// deadline wait this replaced.
#[test]
fn one_request_cell() {
    let gone = [
        "claim_work",
        "park_ticket",
        "steal_ticket",
        "lock_ticket_slot",
        "resolved_cancelled",
        "wait_deadline",
    ];
    let all = crate_sources();
    let naming = all.iter().filter(|s| gone.iter().any(|w| s.names(w)));
    assert_eq!(paths(naming), Vec::<&str>::new());
}

/// One query cell. A kleislid query's life on its connection — waiting
/// for a run slot, running under its token, answered — is one entry in
/// `server::Queries`, which admission, CANCEL routing, the hand-on of run
/// slots and the drain all move under one lock. The names below are the
/// second table, the separate admission state, their locks and the slot
/// guard this replaced.
#[test]
fn one_query_cell() {
    let gone = ["lock_pending", "lock_admission", "Pending::Requested", "RunSlot"];
    let server = sources(&["crates/server/src"]);
    let naming = server.iter().filter(|s| gone.iter().any(|w| s.names(w)));
    assert_eq!(paths(naming), Vec::<&str>::new());
}

/// One way to stop a reader. A kleislid reader blocks in its read with
/// no timeout and checks the stop between frames; the stop wakes it by
/// shutting its socket's read half, as condemnation does. A read timeout,
/// or the wrapper that retried it until the stop showed, is a second way
/// to end a connection: by a clock, which a client sending a frame every
/// tick keeps from ever striking.
#[test]
fn one_way_to_stop_a_reader() {
    let gone = ["set_read_timeout", "Polled"];
    let server = sources(&["crates/server/src/server.rs"]);
    assert_eq!(server.len(), 1, "the server's source file");
    let naming = server.iter().filter(|s| gone.iter().any(|w| s.names(w)));
    assert_eq!(paths(naming), Vec::<&str>::new());
}

/// One join choice. A local join's operator is whether it has keys
/// (`nrc::Expr::Join::keys`: `Some` the indexed nested loop, `None` the
/// blocked one); a strategy tag beside the keys stores that one decision
/// twice and admits plans no rule builds — a blocked join with keys, an
/// indexed one without.
#[test]
fn one_join_choice() {
    // Spelled in halves, so that this file does not name them.
    let tags = [concat!("Join", "Strategy"), concat!("Blocked", "Nl"), concat!("Indexed", "Nl")];
    let all = sources(&["crates", "tests", "examples", "src"]);
    let naming = all.iter().filter(|s| tags.iter().any(|t| s.names(t)));
    assert_eq!(paths(naming), Vec::<&str>::new());
}

/// One flight table. A batched key's `Flight` is kept in one keyed table
/// per driver, `core::batch`'s `BatchWindow`, only while its wire request
/// is in the air (a batch fetch's handles hold their own flights); a
/// second map of flights elsewhere is a second copy of its hold and
/// resolve rules under a second lock.
#[test]
fn one_flight_table() {
    let mut tables = Vec::new();
    for s in crate_sources().iter().filter(|s| s.path != "crates/core/src/batch.rs") {
        for (number, line) in &s.lines {
            if names_word(line, "HashMap") && names_word(line, "Flight") {
                tables.push(format!("{}:{number}", s.path));
            }
        }
    }
    assert_eq!(tables, Vec::<String>::new());
}

/// One resilience state per driver. A driver builds its `DriverResilience`
/// once and every session that registers it shares that breaker, flight
/// table and counter set (`Driver::resilience`); an executor, session or
/// server layer naming the type is building a second one per context, and
/// a `reset_metrics` is a second path to counters that only grow — a
/// reader takes `MetricsSnapshot::since` instead.
#[test]
fn one_resilience_per_driver() {
    let naming = |files: Vec<Source>, word: &str| -> Vec<String> {
        let lines = files.into_iter().flat_map(|s| {
            let at = |(number, line): &(usize, String)| {
                names_word(line, word).then(|| format!("{}:{number}", s.path))
            };
            s.lines.iter().filter_map(at).collect::<Vec<_>>()
        });
        lines.collect()
    };
    let layers = sources(&["crates/exec/src", "crates/kleisli/src", "crates/server/src"]);
    assert_eq!(naming(layers, "DriverResilience"), Vec::<String>::new());
    assert_eq!(naming(crate_sources(), "reset_metrics"), Vec::<String>::new());
}

/// One exchange reader. The exchange format is lines, one per token:
/// `write_exchange_into` writes a value's lines in one walk over it and
/// `read_exchange` builds the value in one pass over them. A token type
/// between text and `Value`, or a tokenizer producing it, is a second
/// spelling of every value that crosses the wire, to be kept in step with
/// the first. (`cpl::lexer`'s `Token` is the query language's.)
#[test]
fn one_exchange_reader() {
    let mut naming = Vec::new();
    for s in sources(&["crates/core/src"]) {
        for (number, line) in &s.lines {
            let declares = line.contains("enum Token") && names_word(line, "Token");
            if declares || names_word(line, "Tokenizer") || names_word(line, "detokenize") {
                naming.push(format!("{}:{number}", s.path));
            }
        }
    }
    assert_eq!(naming, Vec::<String>::new());
}

/// The methods of the top-level block `header` opens in `file` that start
/// work: named with one of the prefixes `verbs`, or returning one of the
/// types `handles` — every method of a trait, the `pub` ones of an `impl`.
fn starting(file: &str, header: &str, verbs: &[&str], handles: &[&str]) -> Vec<String> {
    let source = sources(&[file]).pop().expect("the file");
    let public = header.contains("trait");
    let mut found = Vec::new();
    let mut inside = false;
    for (at, (_, line)) in source.lines.iter().enumerate() {
        if line.starts_with(header) {
            inside = true;
        } else if line == "}" {
            inside = false;
        }
        let method = line.strip_prefix("    ").filter(|m| {
            m.starts_with("fn ") || (m.starts_with("pub") && m.contains(" fn "))
        });
        let Some(method) = method.filter(|m| inside && (public || m.starts_with("pub"))) else {
            continue;
        };
        let end = (at..source.lines.len())
            .find(|&i| source.lines[i].1.contains('{') || source.lines[i].1.ends_with(';'))
            .unwrap_or(at);
        let signature: String = source.lines[at..=end].iter().map(|(_, l)| l.as_str()).collect();
        let name: String = method[method.find("fn ").expect("a fn") + 3..]
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect();
        let returns = signature.split_once("->").map_or("", |(_, r)| r);
        let verb = verbs.iter().any(|verb| name.starts_with(verb));
        if verb || handles.iter().any(|handle| returns.contains(handle)) {
            found.push(name);
        }
    }
    found
}

/// The methods of `header` in `file` that put a request on the wire:
/// named `submit…` or `fetch…`, or returning a request handle.
fn submitting(file: &str, header: &str) -> Vec<String> {
    let handles = ["RequestHandle", "ResilientHandle"];
    starting(file, header, &["submit", "fetch"], &handles)
}

/// One verb per layer. A request reaches its source through `Driver`,
/// then the driver's `DriverResilience`, then the executor's `Context`,
/// and each has exactly one submitting method, `fetch(reqs, how)`:
/// windowed or full, split or whole, one key or a batch is the `Fetch`
/// it is given, not another method. `Driver::perform` is the blocking
/// half a source implements, and `Driver::submit` the one-request window
/// shorthand the benchmark calls. Above them a query starts one way,
/// `Session::start(&plan, how)`: read to the end or stopped after a
/// limit is the `How` it is given. A starter is named `submit…`,
/// `query…` or `run_…`, or returns a `QueryHandle`; `run`, the statement
/// runner that binds `define`s, is not one.
#[test]
fn one_verb_per_layer() {
    let mut driver = submitting("crates/core/src/driver.rs", "pub trait Driver");
    driver.retain(|name| name != "submit");
    assert_eq!(driver, ["fetch"], "Driver");
    let resilience = submitting("crates/core/src/resilience.rs", "impl DriverResilience");
    assert_eq!(resilience, ["fetch"], "DriverResilience");
    let context = submitting("crates/exec/src/context.rs", "impl Context");
    assert_eq!(context, ["fetch"], "Context");
    let (file, verbs) = ("crates/kleisli/src/session.rs", ["start", "submit", "query", "run_"]);
    let mut session = starting(file, "impl Session", &verbs, &["QueryHandle"]);
    // `query` is the compile-start-wait shorthand; `run_compiled` and
    // `submit_compiled` are forwards kept only for the benchmark, retired
    // with `Driver::submit` (ROADMAP item 14).
    session.retain(|name| !["query", "run_compiled", "submit_compiled"].contains(&name.as_str()));
    assert_eq!(session, ["start"], "Session");
}

/// The `pub` fields of the struct `name` declares in `file`.
fn pub_fields(file: &str, name: &str) -> Vec<String> {
    let source = sources(&[file]).pop().expect("the file");
    let header = format!("pub struct {name} {{");
    let body = source.lines.iter().skip_while(|(_, line)| line.trim_start() != header).skip(1);
    let fields = body.take_while(|(_, line)| line.trim() != "}").filter_map(|(_, line)| {
        let field = line.trim_start().strip_prefix("pub ")?;
        Some(field.split_once(':')?.0.to_string())
    });
    fields.collect()
}

/// The knob census: how many settings the optimizer, a driver's
/// advertisement, its failure handling and the server expose. A change
/// that adds or removes one edits the count here, in its own diff.
#[test]
fn the_knob_census() {
    let census = [
        ("crates/opt/src/engine.rs", "OptConfig", 6),
        ("crates/core/src/driver.rs", "Capabilities", 6),
        ("crates/core/src/resilience.rs", "ResiliencePolicy", 2),
        ("crates/server/src/server.rs", "ServerConfig", 8),
    ];
    for (file, name, count) in census {
        let fields = pub_fields(file, name);
        assert_eq!(fields.len(), count, "{name}: {fields:?}");
    }
}
