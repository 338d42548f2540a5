//! Guard-scope analysis: which lock guards are live at every point of a
//! function, from the same token-shaped view the other rules use.
//!
//! This is deliberately *intra*-procedural and name-based — no types, no
//! MIR. A "lock" is identified by the field or static that owns it
//! (`state: Mutex<State>` → lock `state` of its declaring file); a "guard
//! region" opens at `let g = x.lock()` / `.read()` / `.write()` /
//! `try_lock()` and closes at the end of the enclosing block, at an
//! explicit `drop(g)`, or when `g` is shadowed. Two suspension forms are
//! understood, mirroring the vendored `parking_lot` semantics the engine
//! relies on:
//!
//! * `MutexGuard::unlocked(g, || …)` — `g` is *not* held inside the
//!   closure (the group-commit leader's lock-free I/O window);
//! * `cv.wait(&mut g)` / `cv.wait_for(&mut g, …)` — `g` is released for
//!   the duration of the wait.
//!
//! The per-function result ([`FnInfo`]) records every lock acquisition,
//! every call, and every *blocking operation* together with the set of
//! locks held at that point. [`crate::graph`] stitches these into the
//! cross-function acquisition graph (rule L6) and the blocking-under-lock
//! report (rule L7).

use crate::lexer::{is_ident_char, PreparedSource};

/// Identity of one lock: the repository-relative file that declares it
/// plus the field/static name. Field names repeat across the workspace
/// (`state` appears in four crates), so the file is part of the identity.
/// This pass sees one file at a time and names every lock after the file
/// it is *used* in — `<T>` for a `MutexGuard<'_, T>` parameter whose lock
/// that file does not declare; [`crate::graph`] maps both onto the
/// declaring file.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LockId {
    pub file: String,
    pub name: String,
}

impl std::fmt::Display for LockId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.file, self.name)
    }
}

/// A `name: Mutex<T>` / `name: RwLock<T>` field or static declaration.
#[derive(Debug, Clone)]
pub struct LockDecl {
    pub id: LockId,
    /// The first path segment of the protected type (`State`,
    /// `GateState`, …) — used to resolve `MutexGuard<'_, T>` parameters.
    pub inner_ty: String,
    pub line: usize,
}

/// One lock acquisition site.
#[derive(Debug, Clone)]
pub struct Acquisition {
    pub lock: LockId,
    pub line: usize,
    /// Locks already held (live and unsuspended) at this point.
    pub held: Vec<LockId>,
    /// Receiver text as written (`self.state`, `gate.state[i]` …).
    pub receiver: String,
    /// True when no guard parameter is suspended here — i.e. a caller
    /// whose lock entered through the parameter still holds it.
    pub under_entry: bool,
}

/// One call site (function or method, macro calls excluded).
#[derive(Debug, Clone)]
pub struct CallSite {
    pub callee: String,
    pub line: usize,
    pub held: Vec<LockId>,
    pub under_entry: bool,
}

/// One directly blocking operation.
#[derive(Debug, Clone)]
pub struct BlockingOp {
    /// What blocks, e.g. "thread::sleep", "Env I/O (`env.delete`)".
    pub what: String,
    pub line: usize,
    pub held: Vec<LockId>,
    pub under_entry: bool,
}

/// Analysis result for one function.
#[derive(Debug, Clone)]
pub struct FnInfo {
    pub name: String,
    pub file: String,
    pub line: usize,
    /// Locks live at entry via `MutexGuard`/`RwLock*Guard` parameters
    /// (resolved against the workspace's lock declarations by
    /// [`crate::graph`]; stored here as the protected type name).
    pub guard_params: Vec<GuardParam>,
    pub acquisitions: Vec<Acquisition>,
    pub calls: Vec<CallSite>,
    pub blocking: Vec<BlockingOp>,
}

/// A `st: &mut MutexGuard<'_, State>`-style parameter.
#[derive(Debug, Clone)]
pub struct GuardParam {
    pub var: String,
    /// Protected type's first path segment (`State`).
    pub ty: String,
}

/// Everything the graph pass needs from one file.
#[derive(Debug, Clone)]
pub struct FileAnalysis {
    pub file: String,
    pub locks: Vec<LockDecl>,
    pub fns: Vec<FnInfo>,
}

// ---------------------------------------------------------------------------
// Tokenizer
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum TokKind {
    Ident(String),
    Sym(char),
}

#[derive(Debug, Clone)]
struct Tok {
    kind: TokKind,
    /// 0-based line index.
    line: usize,
}

fn tokenize(src: &PreparedSource) -> Vec<Tok> {
    let mut toks = Vec::new();
    for (line, text) in src.code.iter().enumerate() {
        let chars: Vec<char> = text.chars().collect();
        let mut i = 0;
        while i < chars.len() {
            let c = chars[i];
            if c.is_whitespace() {
                i += 1;
            } else if is_ident_char(c) {
                let start = i;
                while i < chars.len() && is_ident_char(chars[i]) {
                    i += 1;
                }
                toks.push(Tok {
                    kind: TokKind::Ident(chars[start..i].iter().collect()),
                    line,
                });
            } else {
                toks.push(Tok {
                    kind: TokKind::Sym(c),
                    line,
                });
                i += 1;
            }
        }
    }
    toks
}

fn ident(t: &Tok) -> Option<&str> {
    match &t.kind {
        TokKind::Ident(s) => Some(s),
        TokKind::Sym(_) => None,
    }
}

fn sym(t: &Tok) -> Option<char> {
    match &t.kind {
        TokKind::Sym(c) => Some(*c),
        TokKind::Ident(_) => None,
    }
}

/// Methods whose *empty-argument* call on any receiver acquires a lock.
/// `read()`/`write()` with arguments are `io::Read`/`io::Write` calls and
/// never match (the paren must close immediately).
const ACQUIRE_METHODS: [&str; 4] = ["lock", "read", "write", "try_lock"];

/// Env-trait methods: a call on a receiver whose last segment is `env`
/// does real (or fault-injected) I/O.
const ENV_METHODS: [&str; 7] = ["create", "open", "delete", "rename", "exists", "list", "size"];

/// Rust keywords that look like call heads (`if (x)`, `while (…)`).
const KEYWORDS: [&str; 24] = [
    "if", "else", "while", "for", "loop", "match", "return", "let", "mut", "ref", "move", "in",
    "as", "fn", "impl", "where", "pub", "use", "mod", "struct", "enum", "trait", "unsafe", "dyn",
];

// ---------------------------------------------------------------------------
// File-level scans
// ---------------------------------------------------------------------------

/// Collects `name: Mutex<T>` / `name: RwLock<T>` declarations (struct
/// fields and statics look identical at token level).
fn collect_lock_decls(file: &str, toks: &[Tok]) -> Vec<LockDecl> {
    let mut decls = Vec::new();
    for i in 0..toks.len() {
        let Some(kw) = ident(&toks[i]) else { continue };
        if kw != "Mutex" && kw != "RwLock" {
            continue;
        }
        // `Mutex<T>` preceded by `name :` is a declaration; `Mutex::new`
        // or a bare path in an expression is not.
        if sym(toks.get(i + 1).unwrap_or(&toks[i])) != Some('<') {
            continue;
        }
        if i < 2 || sym(&toks[i - 1]) != Some(':') {
            continue;
        }
        // Skip turbofish/paths: `parking_lot::Mutex<T>` — walk further
        // back over `path ::` segments to the field name.
        let mut j = i - 1; // at ':'
        if j >= 1 && sym(&toks[j - 1]) == Some(':') {
            // `::` — a path segment, not a field declaration, unless the
            // path itself is preceded by `name :`.
            let mut k = j - 1;
            while k >= 2 && sym(&toks[k]) == Some(':') && sym(&toks[k - 1]) == Some(':') {
                if ident(&toks[k - 2]).is_none() {
                    break;
                }
                k -= 3; // skip `ident ::`
            }
            if sym(&toks[k]) != Some(':') || k == 0 {
                continue;
            }
            j = k;
        }
        let Some(name) = (j >= 1).then(|| ident(&toks[j - 1])).flatten() else {
            continue;
        };
        if !name.chars().next().is_some_and(|c| c.is_alphabetic() || c == '_') {
            continue;
        }
        // Inner type: last identifier before the matching `>`.
        let mut depth = 0i32;
        let mut inner = String::new();
        for t in &toks[i + 1..] {
            match sym(t) {
                Some('<') => depth += 1,
                Some('>') => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                Some('(') | Some(')') | Some(';') | Some('{') => break,
                _ => {
                    if let Some(id) = ident(t) {
                        inner = id.to_string();
                    }
                }
            }
        }
        decls.push(LockDecl {
            id: LockId {
                file: file.to_string(),
                name: name.to_string(),
            },
            inner_ty: inner,
            line: toks[i].line + 1,
        });
    }
    decls
}

// ---------------------------------------------------------------------------
// Function analysis
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct LiveGuard {
    var: String,
    lock: LockId,
    /// Brace depth the binding lives at; the guard dies when depth drops
    /// below this.
    depth: i32,
    /// Statement-temporary (unbound `x.lock().field` chain): dies at the
    /// next `;`.
    temp: bool,
    /// Suspension nesting (`MutexGuard::unlocked` windows).
    suspended: u32,
}

/// Suspension-list sentinel for `spawn(…)` argument windows.
const SPAWN_MARKER: &str = "<spawn>";

struct FnCtx {
    info: FnInfo,
    body_depth: i32,
    guards: Vec<LiveGuard>,
    /// `(guard var, paren depth to restore at)` for open `unlocked` and
    /// `spawn` windows ([`SPAWN_MARKER`] entries track the latter).
    suspensions: Vec<(String, i32)>,
    /// Nesting of `spawn(…)` argument windows: code here runs on another
    /// thread, so nothing in it blocks the caller or holds its locks.
    spawn_depth: u32,
}

impl FnCtx {
    fn held(&self) -> Vec<LockId> {
        let mut held: Vec<LockId> = Vec::new();
        for g in &self.guards {
            if g.suspended == 0 && !held.contains(&g.lock) {
                held.push(g.lock.clone());
            }
        }
        held
    }

    fn under_entry(&self) -> bool {
        self.spawn_depth == 0
            && !self
                .guards
                .iter()
                .any(|g| g.suspended > 0 && self.info.guard_params.iter().any(|p| p.var == g.var))
    }
}

/// Analyzes one prepared library source file.
pub fn analyze_file(file: &str, src: &PreparedSource) -> FileAnalysis {
    let toks = tokenize(src);
    let locks = collect_lock_decls(file, &toks);
    let local_ty_to_lock = |ty: &str| -> Option<LockId> {
        locks
            .iter()
            .find(|d| d.inner_ty == ty)
            .map(|d| d.id.clone())
    };

    let mut fns: Vec<FnInfo> = Vec::new();
    let mut stack: Vec<FnCtx> = Vec::new();
    let mut brace_depth: i32 = 0;
    let mut paren_depth: i32 = 0;
    // Tokens of the current statement (indices), reset at `;` `{` `}`.
    let mut stmt_start = 0usize;

    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];

        // --- function headers --------------------------------------------
        if ident(t) == Some("fn") && !src.in_test.get(t.line).copied().unwrap_or(false) {
            if let Some(name) = toks.get(i + 1).and_then(ident) {
                if let Some((params_end, guard_params)) = parse_fn_signature(&toks, i + 2) {
                    // A body `{` (not a trait-decl `;`) must follow before
                    // the next `;`.
                    let mut j = params_end;
                    let mut body = None;
                    let mut angle = 0i32;
                    while let Some(tj) = toks.get(j) {
                        match sym(tj) {
                            Some('{') if angle <= 0 => {
                                body = Some(j);
                                break;
                            }
                            Some(';') if angle <= 0 => break,
                            Some('<') => angle += 1,
                            Some('>') => angle -= 1,
                            _ => {}
                        }
                        j += 1;
                    }
                    if let Some(body_at) = body {
                        // Fast-forward shared state to the body brace.
                        for tk in &toks[i..body_at] {
                            match sym(tk) {
                                Some('(') => paren_depth += 1,
                                Some(')') => paren_depth -= 1,
                                _ => {}
                            }
                        }
                        brace_depth += 1; // the body `{`
                        let mut ctx = FnCtx {
                            info: FnInfo {
                                name: name.to_string(),
                                file: file.to_string(),
                                line: t.line + 1,
                                guard_params: guard_params.clone(),
                                acquisitions: Vec::new(),
                                calls: Vec::new(),
                                blocking: Vec::new(),
                            },
                            body_depth: brace_depth,
                            guards: Vec::new(),
                            suspensions: Vec::new(),
                            spawn_depth: 0,
                        };
                        // Guard parameters are live for the whole body.
                        for p in &guard_params {
                            let lock = local_ty_to_lock(&p.ty).unwrap_or(LockId {
                                file: file.to_string(),
                                name: format!("<{}>", p.ty),
                            });
                            ctx.guards.push(LiveGuard {
                                var: p.var.clone(),
                                lock,
                                depth: brace_depth,
                                temp: false,
                                suspended: 0,
                            });
                        }
                        stack.push(ctx);
                        stmt_start = body_at + 1;
                        i = body_at + 1;
                        continue;
                    }
                }
            }
        }

        match sym(t) {
            Some('{') => {
                brace_depth += 1;
                stmt_start = i + 1;
            }
            Some('}') => {
                brace_depth -= 1;
                stmt_start = i + 1;
                // Close guards that went out of scope, then maybe the fn.
                if let Some(ctx) = stack.last_mut() {
                    ctx.guards.retain(|g| g.depth <= brace_depth);
                    if brace_depth < ctx.body_depth {
                        let done = stack.pop().expect("ctx present");
                        fns.push(done.info);
                    }
                }
            }
            Some('(') => {
                paren_depth += 1;
            }
            Some(')') => {
                paren_depth -= 1;
                if let Some(ctx) = stack.last_mut() {
                    while let Some((var, at)) = ctx.suspensions.last().cloned() {
                        if paren_depth <= at {
                            ctx.suspensions.pop();
                            if var == SPAWN_MARKER {
                                ctx.spawn_depth = ctx.spawn_depth.saturating_sub(1);
                            } else if let Some(g) =
                                ctx.guards.iter_mut().rev().find(|g| g.var == var)
                            {
                                g.suspended = g.suspended.saturating_sub(1);
                            }
                        } else {
                            break;
                        }
                    }
                }
            }
            Some(';') => {
                if let Some(ctx) = stack.last_mut() {
                    ctx.guards.retain(|g| !g.temp);
                }
                stmt_start = i + 1;
            }
            _ => {}
        }

        if stack.is_empty() {
            i += 1;
            continue;
        }

        // --- in-function events -------------------------------------------
        let line = t.line + 1;
        if let Some(name) = ident(t) {
            let next_sym = toks.get(i + 1).and_then(sym);
            let prev_sym = (i > 0).then(|| sym(&toks[i - 1])).flatten();
            let empty_parens = next_sym == Some('(') && sym2(&toks, i + 2) == Some(')');

            // MutexGuard::unlocked(g, || …): suspend g until the matching
            // close paren.
            if name == "unlocked"
                && prev_sym == Some(':')
                && next_sym == Some('(')
            {
                if let Some(var) = first_arg_ident(&toks, i + 1) {
                    let ctx = stack.last_mut().expect("in fn");
                    if let Some(g) = ctx.guards.iter_mut().rev().find(|g| g.var == var) {
                        g.suspended += 1;
                        ctx.suspensions.push((var, paren_depth));
                    }
                }
                i += 1;
                continue;
            }

            // spawn(…): the argument closure runs on another thread — the
            // current guards are not held there and nothing inside blocks
            // this thread. Suspend every live guard until the matching
            // close paren.
            if name == "spawn" && next_sym == Some('(') {
                let ctx = stack.last_mut().expect("in fn");
                for g in ctx.guards.iter_mut().filter(|g| g.suspended == 0) {
                    g.suspended += 1;
                    ctx.suspensions.push((g.var.clone(), paren_depth));
                }
                ctx.suspensions.push((SPAWN_MARKER.to_string(), paren_depth));
                ctx.spawn_depth += 1;
                i += 1;
                continue;
            }

            // drop(g) / mem::drop(g): the guard dies here.
            if name == "drop" && next_sym == Some('(') {
                if let Some(var) = first_arg_ident(&toks, i + 1) {
                    let ctx = stack.last_mut().expect("in fn");
                    if let Some(pos) = ctx.guards.iter().rposition(|g| g.var == var) {
                        ctx.guards.remove(pos);
                    }
                }
                i += 1;
                continue;
            }

            // cv.wait(&mut g) / cv.wait_for(&mut g, …): releases g while
            // blocked; blocking under any *other* held lock.
            if (name == "wait" || name == "wait_for" || name == "wait_while")
                && prev_sym == Some('.')
                && next_sym == Some('(')
            {
                let released = first_arg_ident(&toks, i + 1);
                let ctx = stack.last_mut().expect("in fn");
                let released_lock = released.as_ref().and_then(|v| {
                    ctx.guards.iter().rev().find(|g| g.var == *v).map(|g| g.lock.clone())
                });
                let mut held = ctx.held();
                if let Some(rl) = &released_lock {
                    held.retain(|l| l != rl);
                }
                // Waiting on an entry guard releases the caller's lock
                // too, so the wait is not blocking *under* that lock from
                // the caller's point of view.
                let releases_entry = released
                    .as_ref()
                    .is_some_and(|v| ctx.info.guard_params.iter().any(|p| p.var == *v));
                let under_entry = ctx.under_entry() && !releases_entry;
                ctx.info.blocking.push(BlockingOp {
                    what: format!("Condvar::{name}"),
                    line,
                    held,
                    under_entry,
                });
                i += 1;
                continue;
            }

            // Lock acquisitions: `.lock()` / `.read()` / `.write()` /
            // `.try_lock()` with an empty argument list.
            if ACQUIRE_METHODS.contains(&name) && prev_sym == Some('.') && empty_parens {
                if let Some((receiver, base)) = receiver_chain(&toks, i - 1) {
                    // `.lock()`/`.try_lock()` are unambiguous; `.read()`/
                    // `.write()` are everyday accessor names, so they only
                    // count when the receiver is a lock declared in this
                    // file (or named like one).
                    if (name == "read" || name == "write")
                        && !locks.iter().any(|d| d.id.name == base)
                        && !base.ends_with("lock")
                    {
                        i += 1;
                        continue;
                    }
                    let ctx = stack.last_mut().expect("in fn");
                    let lock = LockId {
                        file: file.to_string(),
                        name: base,
                    };
                    ctx.info.acquisitions.push(Acquisition {
                        lock: lock.clone(),
                        line,
                        held: ctx.held(),
                        receiver,
                        under_entry: ctx.under_entry(),
                    });
                    // Track the guard region this acquisition opens. The
                    // binding only receives the *guard* when the call ends
                    // the initializer — `let v = x.lock().value;` binds a
                    // copied field, and the guard itself is a temporary.
                    let ends_initializer = matches!(
                        toks.get(i + 3).map(|t| &t.kind),
                        Some(TokKind::Sym(';')) | Some(TokKind::Sym('{')) | None
                    ) || toks.get(i + 3).and_then(ident) == Some("else");
                    let binding = ends_initializer
                        .then(|| stmt_binding(&toks, stmt_start, i))
                        .flatten();
                    if let Some((var, conditional)) = binding {
                        ctx.guards.retain(|g| g.var != var || g.temp);
                        ctx.guards.push(LiveGuard {
                            var,
                            lock,
                            // An `if let Some(g) = …` binding lives only
                            // inside the block the condition opens.
                            depth: brace_depth + i64::from(conditional) as i32,
                            temp: false,
                            suspended: 0,
                        });
                    } else {
                        ctx.guards.push(LiveGuard {
                            var: String::new(),
                            lock,
                            depth: brace_depth,
                            temp: true,
                            suspended: 0,
                        });
                    }
                    i += 3; // skip `( )`
                    continue;
                }
            }

            // thread::sleep(..)
            if name == "sleep" && prev_sym == Some(':') && next_sym == Some('(') {
                let ctx = stack.last_mut().expect("in fn");
                let (held, under_entry) = (ctx.held(), ctx.under_entry());
                ctx.info.blocking.push(BlockingOp {
                    what: "thread::sleep".to_string(),
                    line,
                    held,
                    under_entry,
                });
                i += 1;
                continue;
            }

            // Env-trait I/O: a method from the Env surface invoked on a
            // receiver whose last segment is `env`.
            if ENV_METHODS.contains(&name) && prev_sym == Some('.') && next_sym == Some('(') {
                if let Some((recv, base)) = receiver_chain(&toks, i - 1) {
                    if base == "env" {
                        let ctx = stack.last_mut().expect("in fn");
                        let (held, under_entry) = (ctx.held(), ctx.under_entry());
                        ctx.info.blocking.push(BlockingOp {
                            what: format!("Env I/O (`{recv}.{name}`)"),
                            line,
                            held,
                            under_entry,
                        });
                        i += 1;
                        continue;
                    }
                }
            }

            // Other direct blocking shapes.
            let blocking_what = if prev_sym == Some('.') && empty_parens {
                match name {
                    "sync" => Some("file sync".to_string()),
                    "recv" => Some("channel recv".to_string()),
                    "join" => Some("thread join".to_string()),
                    "accept" => Some("socket accept".to_string()),
                    _ => None,
                }
            } else if prev_sym == Some('.') && next_sym == Some('(') && name == "recv_timeout" {
                Some("channel recv".to_string())
            } else if name == "with_retry" && next_sym == Some('(') {
                Some("retried I/O (`with_retry`)".to_string())
            } else {
                None
            };
            if let Some(what) = blocking_what {
                let ctx = stack.last_mut().expect("in fn");
                let (held, under_entry) = (ctx.held(), ctx.under_entry());
                ctx.info.blocking.push(BlockingOp {
                    what,
                    line,
                    held,
                    under_entry,
                });
                i += 1;
                continue;
            }

            // Plain call site (not a macro, not a keyword).
            if next_sym == Some('(')
                && !KEYWORDS.contains(&name)
                && !name.chars().next().is_some_and(|c| c.is_ascii_digit())
            {
                let ctx = stack.last_mut().expect("in fn");
                ctx.info.calls.push(CallSite {
                    callee: name.to_string(),
                    line,
                    held: ctx.held(),
                    under_entry: ctx.under_entry(),
                });
            }
        }
        i += 1;
    }

    // Unterminated functions (truncated input): flush what we have.
    while let Some(ctx) = stack.pop() {
        fns.push(ctx.info);
    }

    FileAnalysis {
        file: file.to_string(),
        locks,
        fns,
    }
}

fn sym2(toks: &[Tok], i: usize) -> Option<char> {
    toks.get(i).and_then(sym)
}

/// Parses a parameter list starting at the `(` found at or after `from`;
/// returns (index past the matching `)`, guard params).
fn parse_fn_signature(toks: &[Tok], from: usize) -> Option<(usize, Vec<GuardParam>)> {
    // Skip generics `<…>` between the name and `(`.
    let mut i = from;
    let mut angle = 0i32;
    loop {
        let t = toks.get(i)?;
        match sym(t) {
            Some('(') if angle == 0 => break,
            Some('<') => angle += 1,
            Some('>') => angle -= 1,
            Some('{') | Some(';') => return None,
            _ => {}
        }
        i += 1;
    }
    let open = i;
    let mut depth = 0i32;
    let mut end = open;
    for (j, t) in toks.iter().enumerate().skip(open) {
        match sym(t) {
            Some('(') => depth += 1,
            Some(')') => {
                depth -= 1;
                if depth == 0 {
                    end = j;
                    break;
                }
            }
            _ => {}
        }
    }
    if end == open {
        return None;
    }
    let params = &toks[open + 1..end];
    let mut guard_params = Vec::new();
    for (j, t) in params.iter().enumerate() {
        let Some(gty) = ident(t) else { continue };
        if gty != "MutexGuard" && gty != "RwLockReadGuard" && gty != "RwLockWriteGuard" {
            continue;
        }
        if params.get(j + 1).and_then(sym) != Some('<') {
            continue;
        }
        // Inner protected type: last ident before the matching `>`.
        let mut depth = 0i32;
        let mut inner = String::new();
        for t in &params[j + 1..] {
            match sym(t) {
                Some('<') => depth += 1,
                Some('>') => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {
                    if let Some(id) = ident(t) {
                        inner = id.to_string();
                    }
                }
            }
        }
        // Parameter name: nearest `ident :` scanning back from the type,
        // at comma boundary.
        let mut var = None;
        let mut k = j;
        while k > 0 {
            k -= 1;
            if sym(&params[k]) == Some(',') {
                break;
            }
            if sym(&params[k]) == Some(':') && k >= 1 {
                if let Some(v) = ident(&params[k - 1]) {
                    var = Some(v.to_string());
                }
            }
        }
        if let (Some(var), false) = (var, inner.is_empty()) {
            guard_params.push(GuardParam { var, ty: inner });
        }
    }
    Some((end + 1, guard_params))
}

/// The first argument of a call whose `(` sits at `open`: strips `&`,
/// `mut`, `*` and returns the identifier, if the argument is that simple.
fn first_arg_ident(toks: &[Tok], open: usize) -> Option<String> {
    let mut i = open + 1;
    while let Some(t) = toks.get(i) {
        match sym(t) {
            Some('&') | Some('*') => i += 1,
            _ => match ident(t) {
                Some("mut") => i += 1,
                Some(id) => {
                    // Must be the whole argument: next token ends it.
                    return match toks.get(i + 1).and_then(sym) {
                        Some(',') | Some(')') => Some(id.to_string()),
                        _ => None,
                    };
                }
                None => return None,
            },
        }
    }
    None
}

/// Walks back from the `.` before a method name and collects the receiver
/// chain (`self.gate.state`, `shards[i]` …). Returns the chain as written
/// and the lock-naming base: the last field segment (index expressions
/// collapse to their base, `self`/`inner` heads are dropped when a field
/// follows).
fn receiver_chain(toks: &[Tok], dot: usize) -> Option<(String, String)> {
    let mut segs: Vec<String> = Vec::new();
    let mut i = dot; // at '.'
    loop {
        if i == 0 {
            break;
        }
        // Before the '.', expect a segment: ident, `]`-group + ident, or
        // `)`-group (method-call result).
        let mut j = i - 1;
        let mut suffix = String::new();
        if sym(&toks[j]) == Some(']') {
            let mut depth = 0i32;
            loop {
                match sym(&toks[j]) {
                    Some(']') => depth += 1,
                    Some('[') => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                if j == 0 {
                    return None;
                }
                j -= 1;
            }
            if j == 0 {
                return None;
            }
            suffix = "[..]".to_string();
            j -= 1;
        }
        let Some(id) = ident(&toks[j]) else { break };
        segs.push(format!("{id}{suffix}"));
        if j == 0 {
            break;
        }
        // Another `.` continues the chain.
        if sym(&toks[j - 1]) == Some('.') {
            i = j - 1;
            continue;
        }
        break;
    }
    if segs.is_empty() {
        return None;
    }
    segs.reverse();
    let chain = segs.join(".");
    // Base: last segment, stripped of any index suffix.
    let base = segs
        .last()
        .map(|s| s.trim_end_matches("[..]").to_string())
        .filter(|s| !s.is_empty())?;
    Some((chain, base))
}

/// Finds a `let`-binding at the head of the statement spanning
/// `toks[stmt_start..acq]`: `let g = …`, `let mut g = …`,
/// `if/while let Some(g) = …`, `let Ok(g) = … else …`. The second element
/// is true for conditional bindings (`if let`/`while let`), whose guard
/// lives only inside the block the condition opens.
fn stmt_binding(toks: &[Tok], stmt_start: usize, acq: usize) -> Option<(String, bool)> {
    let stmt = &toks[stmt_start..acq.min(toks.len())];
    let let_at = stmt.iter().position(|t| ident(t) == Some("let"))?;
    let conditional = stmt[..let_at]
        .iter()
        .any(|t| matches!(ident(t), Some("if") | Some("while")));
    let mut i = let_at + 1;
    if ident(stmt.get(i)?) == Some("mut") {
        i += 1;
    }
    let head = ident(stmt.get(i)?)?;
    let var = if head == "Some" || head == "Ok" {
        if sym(stmt.get(i + 1)?) != Some('(') {
            return None;
        }
        let mut j = i + 2;
        if ident(stmt.get(j)?) == Some("mut") {
            j += 1;
        }
        ident(stmt.get(j)?)?.to_string()
    } else {
        if head == "_" {
            return None;
        }
        head.to_string()
    };
    // An `=` must appear between the binding and the acquisition.
    if !stmt[i..].iter().any(|t| sym(t) == Some('=')) {
        return None;
    }
    Some((var, conditional))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::prepare;

    fn analyze(src: &str) -> FileAnalysis {
        analyze_file("crates/x/src/lib.rs", &prepare(src))
    }

    #[test]
    fn lock_decls_are_collected() {
        let fa = analyze(
            "struct S { state: Mutex<Inner>, map: RwLock<Vec<u8>> }\nstatic G: Mutex<Registry> = x;",
        );
        let names: Vec<&str> = fa.locks.iter().map(|d| d.id.name.as_str()).collect();
        assert_eq!(names, vec!["state", "map", "G"]);
        assert_eq!(fa.locks[0].inner_ty, "Inner");
        assert_eq!(fa.locks[2].inner_ty, "Registry");
    }

    #[test]
    fn guard_regions_open_and_close() {
        let fa = analyze(
            "struct S { a: Mutex<A>, b: Mutex<B> }\n\
             impl S { fn f(&self) {\n\
               let g = self.a.lock();\n\
               let h = self.b.lock();\n\
             } }",
        );
        let f = &fa.fns[0];
        assert_eq!(f.acquisitions.len(), 2);
        assert!(f.acquisitions[0].held.is_empty());
        assert_eq!(f.acquisitions[1].held.len(), 1);
        assert_eq!(f.acquisitions[1].held[0].name, "a");
    }

    #[test]
    fn drop_and_block_scope_end_guards() {
        let fa = analyze(
            "struct S { a: Mutex<A> }\n\
             impl S { fn f(&self) {\n\
               { let g = self.a.lock(); }\n\
               thread::sleep(d);\n\
               let g2 = self.a.lock();\n\
               drop(g2);\n\
               thread::sleep(d);\n\
             } }",
        );
        let f = &fa.fns[0];
        assert_eq!(f.blocking.len(), 2);
        assert!(f.blocking[0].held.is_empty(), "scope-dropped: {:?}", f.blocking[0]);
        assert!(f.blocking[1].held.is_empty(), "drop()-ed: {:?}", f.blocking[1]);
    }

    #[test]
    fn unlocked_window_suspends_the_guard() {
        let fa = analyze(
            "struct S { a: Mutex<A> }\n\
             impl S { fn f(&self) {\n\
               let mut g = self.a.lock();\n\
               MutexGuard::unlocked(&mut g, || {\n\
                 thread::sleep(d);\n\
               });\n\
               thread::sleep(d);\n\
             } }",
        );
        let f = &fa.fns[0];
        assert_eq!(f.blocking.len(), 2);
        assert!(f.blocking[0].held.is_empty(), "suspended: {:?}", f.blocking[0]);
        assert_eq!(f.blocking[1].held.len(), 1, "resumed: {:?}", f.blocking[1]);
    }

    #[test]
    fn guard_params_are_live_at_entry() {
        let fa = analyze(
            "struct S { state: Mutex<Inner> }\n\
             impl S { fn f(&self, st: &mut MutexGuard<'_, Inner>) {\n\
               thread::sleep(d);\n\
             } }",
        );
        let f = &fa.fns[0];
        assert_eq!(f.guard_params.len(), 1);
        assert_eq!(f.blocking[0].held.len(), 1);
        assert_eq!(f.blocking[0].held[0].name, "state");
    }

    #[test]
    fn condvar_wait_releases_its_own_lock() {
        let fa = analyze(
            "struct S { a: Mutex<A>, b: Mutex<B> }\n\
             impl S { fn ok(&self) {\n\
               let mut g = self.a.lock();\n\
               self.cv.wait(&mut g);\n\
             }\n\
             fn bad(&self) {\n\
               let mut g = self.a.lock();\n\
               let mut h = self.b.lock();\n\
               self.cv.wait(&mut h);\n\
             } }",
        );
        assert!(fa.fns[0].blocking[0].held.is_empty());
        let bad = &fa.fns[1].blocking[0];
        assert_eq!(bad.held.len(), 1);
        assert_eq!(bad.held[0].name, "a");
    }

    #[test]
    fn temporaries_die_at_statement_end() {
        let fa = analyze(
            "struct S { a: Mutex<A> }\n\
             impl S { fn f(&self) -> u64 {\n\
               let v = self.a.lock().value;\n\
               thread::sleep(d);\n\
               v\n\
             } }",
        );
        assert!(fa.fns[0].blocking[0].held.is_empty());
    }
}
