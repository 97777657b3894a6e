//! The columnar event store: struct-of-arrays event storage plus a
//! string interner, the zero-allocation hot path under every derived
//! product.
//!
//! The row representation ([`GlobalEvent`]) carries a heap-allocated
//! `Vec<u64>` per event and owned `String`s for context names, so a
//! product pass over a large trace walks millions of small
//! allocations. [`EventColumns`] packs the same data as parallel
//! columns — one `Vec` per field, parameter tuples deduplicated
//! through a dictionary — and [`Interner`] replaces repeated strings
//! with `u32` symbol ids resolved through one table. [`ColumnarTrace`]
//! wraps the columns with the trace header, anchors and interned
//! context names, keeps them core-major (one time-ordered segment per
//! core, so every per-core product reads a range), builds the global
//! order on demand ([`GlobalOrder`]), and can
//! [`materialize`](ColumnarTrace::materialize) the original row form
//! byte-identically so the public API is unchanged.
//!
//! Layout (`n` events, ~19 B/event resident, half-open offset ranges):
//!
//! ```text
//! time_tb    [u64; n]     core-major: sorted by (core tag, time)
//! core_tag   [u8; n]      TraceCore::tag values, ascending
//! code       [EventCode; n]
//! stream_seq [u32; n]     u32::MAX = escape to the sorted wide_seq table
//! params_id  [u32; n]     event i's params = dict.buf[off[id]..off[id+1]]
//! dict.off   [u32; d + 1] one entry per distinct tuple (ParamDict)
//! dict.buf   [u64; sum]   deduplicated parameter words
//! by_rank    [u32; n]     on demand: store position of each global rank
//! rank       [u32; n]     on demand: global rank of each store position
//! ```
//!
//! Interning rules: symbols are created only while the store is built
//! (single-threaded); afterwards the table is immutable and resolving
//! a [`Sym`] is a shared read, safe under the concurrent product
//! builds of [`build_products`](crate::session::Analysis::build_products).
//! Equal strings always intern to the same symbol (dedup), and
//! materialization returns the exact original strings in the exact
//! original order.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use pdt::{EventCode, EventGroup, TraceCore, TraceHeader};

use crate::analyze::{AnalyzedTrace, GlobalEvent, SpeAnchor};

/// An interned string id: an index into one [`Interner`] table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Sym(u32);

impl Sym {
    /// The raw table index.
    pub fn index(self) -> u32 {
        self.0
    }
}

/// A deduplicating string table: equal strings intern to equal
/// [`Sym`]s. Mutation happens only during store construction; resolve
/// is a shared read.
#[derive(Debug, Default, Clone)]
pub struct Interner {
    strings: Vec<String>,
    lookup: HashMap<String, u32>,
}

impl Interner {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `s`, returning the existing symbol when the string was
    /// seen before.
    pub fn intern(&mut self, s: &str) -> Sym {
        if let Some(&i) = self.lookup.get(s) {
            return Sym(i);
        }
        let i = index32(self.strings.len());
        self.strings.push(s.to_owned());
        self.lookup.insert(s.to_owned(), i);
        Sym(i)
    }

    /// The string behind `sym`.
    ///
    /// # Panics
    ///
    /// Panics if `sym` came from a different interner with more
    /// entries.
    pub fn resolve(&self, sym: Sym) -> &str {
        &self.strings[sym.0 as usize]
    }

    /// The symbol `s` interned to, if it was interned.
    pub fn get(&self, s: &str) -> Option<Sym> {
        self.lookup.get(s).map(|&i| Sym(i))
    }

    /// Number of distinct strings in the table.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }
}

/// A borrowed view of one event: the columnar counterpart of
/// [`GlobalEvent`], with the parameter words as a slice into the
/// shared flat buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventView<'a> {
    /// Reconstructed time in timebase ticks.
    pub time_tb: u64,
    /// Producing core.
    pub core: TraceCore,
    /// Event code.
    pub code: EventCode,
    /// Parameter words.
    pub params: &'a [u64],
    /// Per-core recording sequence number.
    pub stream_seq: u64,
}

impl EventView<'_> {
    /// Copies the view into an owned row event.
    pub fn to_event(&self) -> GlobalEvent {
        GlobalEvent {
            time_tb: self.time_tb,
            core: self.core,
            code: self.code,
            params: self.params.to_vec(),
            stream_seq: self.stream_seq,
        }
    }
}

/// Sentinel in the narrow sequence column: the event's sequence number
/// does not fit and lives in the sorted overflow table instead.
const SEQ_WIDE: u32 = u32::MAX;

/// FNV-1a over parameter words (length-salted), the hash behind the
/// parameter-dictionary index.
fn hash_params(params: &[u64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ (params.len() as u64).wrapping_mul(0x0100_0000_01b3);
    for &p in params {
        h = (h ^ p).wrapping_mul(0x0100_0000_01b3);
        h ^= h >> 29;
    }
    h
}

/// Interning switches to append-only once this many tuples have been
/// interned with almost no deduplication (see [`ParamDict::intern`]).
const DICT_DEGENERATE_AFTER: u32 = 4096;

/// A `u32` index into one of the store's arrays. The store addresses
/// events, tuples and parameter words with `u32` (half the width of
/// `usize`, the ~19 B/event layout): past 2^32 of any of them (a v1
/// image of 64 GiB or more) there is no narrower index to fall back on.
pub(crate) fn index32(n: usize) -> u32 {
    u32::try_from(n).expect("columnar store exceeds u32 addressing")
}

/// A deduplicating parameter-tuple dictionary: tuple `id` is
/// `buf[off[id]..off[id + 1]]`. The store keeps one; each stream of a
/// one-shot ingest interns into its own and is remapped into the
/// store's afterwards.
///
/// An open-addressing index maps a tuple's hash to its id while the
/// dictionary grows. Slots hold `id + 1` (0 = empty); collisions
/// resolve by comparing the actual tuple in the buffers. Traces whose
/// tuples barely repeat (distinct DMA effective addresses on every
/// transfer) get nothing from deduplication but would pay a hash +
/// probe + periodic rehash on every event, so the dictionary watches
/// its own hit rate: once `DICT_DEGENERATE_AFTER` tuples have been
/// interned with under 1/8 of lookups deduplicating, it drops the
/// hash table and appends every tuple as a fresh id — the same cost
/// profile as a flat offsets buffer.
#[derive(Debug, Clone)]
pub(crate) struct ParamDict {
    off: Vec<u32>,
    buf: Vec<u64>,
    slots: Vec<u32>,
    /// Total `intern` calls, saturating at `DICT_DEGENERATE_AFTER`
    /// (only the warm-up window is measured).
    lookups: u32,
    /// `intern` calls in the warm-up window that hit an existing id.
    hits: u32,
    /// Hit rate stayed under 1/8 through warm-up: append-only mode.
    degenerate: bool,
}

impl Default for ParamDict {
    fn default() -> Self {
        ParamDict {
            off: vec![0],
            buf: Vec::new(),
            slots: Vec::new(),
            lookups: 0,
            hits: 0,
            degenerate: false,
        }
    }
}

impl ParamDict {
    /// Distinct tuples (ids) in the dictionary.
    pub(crate) fn len(&self) -> usize {
        self.off.len() - 1
    }

    /// The tuple behind `id`.
    pub(crate) fn get(&self, id: u32) -> &[u64] {
        let id = id as usize;
        &self.buf[self.off[id] as usize..self.off[id + 1] as usize]
    }

    fn grow(&mut self) {
        let cap = (self.slots.len() * 2).max(16);
        self.slots = vec![0u32; cap];
        for id in 0..self.len() {
            let mut at = hash_params(self.get(id as u32)) as usize & (cap - 1);
            while self.slots[at] != 0 {
                at = (at + 1) & (cap - 1);
            }
            self.slots[at] = id as u32 + 1;
        }
    }

    /// Appends `params` as a fresh id, bypassing the hash table.
    fn append(&mut self, params: &[u64]) -> u32 {
        let id = index32(self.len());
        self.buf.extend_from_slice(params);
        self.off.push(index32(self.buf.len()));
        id
    }

    /// Looks up `params`, interning it if new.
    pub(crate) fn intern(&mut self, params: &[u64]) -> u32 {
        if self.degenerate {
            return self.append(params);
        }
        if self.lookups < DICT_DEGENERATE_AFTER {
            self.lookups += 1;
        } else if self.hits < DICT_DEGENERATE_AFTER / 8 {
            self.degenerate = true;
            self.slots = Vec::new();
            return self.append(params);
        }
        let (id, hit) = self.find_or_insert(params);
        if hit && self.lookups < DICT_DEGENERATE_AFTER {
            self.hits = self.hits.saturating_add(1);
        }
        id
    }

    /// Interns every tuple of `other` in id order, returning each
    /// one's id here. `other`'s tuples are already distinct, so they
    /// do not count towards this dictionary's hit rate; a degenerate
    /// `other` makes this dictionary append-only too.
    pub(crate) fn absorb(&mut self, other: &ParamDict) -> Vec<u32> {
        if other.degenerate && !self.degenerate {
            self.degenerate = true;
            self.slots = Vec::new();
        }
        (0..other.len() as u32)
            .map(|id| {
                let params = other.get(id);
                if self.degenerate {
                    self.append(params)
                } else {
                    self.find_or_insert(params).0
                }
            })
            .collect()
    }

    /// The hashed lookup: `params`'s id, and whether it was already
    /// present.
    fn find_or_insert(&mut self, params: &[u64]) -> (u32, bool) {
        // Load stays at or under 1/2: a linear-probing miss walks about
        // 1/(1-load)^2 slots, and each occupied one costs a tuple
        // compare in the (cache-cold) dictionary buffers.
        if (self.len() + 1) * 2 >= self.slots.len() {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut at = hash_params(params) as usize & mask;
        loop {
            match self.slots[at] {
                0 => {
                    let id = self.append(params);
                    self.slots[at] = id + 1;
                    return (id, false);
                }
                slot if self.get(slot - 1) == params => return (slot - 1, true),
                _ => at = (at + 1) & mask,
            }
        }
    }

    /// Resident bytes of the buffers and the hash table.
    fn bytes_in_memory(&self) -> usize {
        self.off.capacity() * 4 + self.buf.capacity() * 8 + self.slots.capacity() * 4
    }
}

/// Struct-of-arrays event storage, sized for the 100M-event point:
/// core tags stored as single bytes, per-stream sequence numbers as
/// `u32` with a sorted overflow escape, and parameter tuples
/// deduplicated through a dictionary (`params_id` per event indexing
/// it) — DMA bursts and user markers repeat a
/// handful of tuples millions of times, so the dictionary collapses
/// the dominant per-event cost of the old flattened buffer.
#[derive(Debug, Default, Clone)]
pub struct EventColumns {
    time_tb: Vec<u64>,
    core_tag: Vec<u8>,
    code: Vec<EventCode>,
    stream_seq: Vec<u32>,
    /// `(event index, sequence)` pairs, index-sorted, for events whose
    /// sequence number is `>= u32::MAX`.
    wide_seq: Vec<(u32, u64)>,
    params_id: Vec<u32>,
    dict: ParamDict,
}

impl PartialEq for EventColumns {
    /// Logical equality: same events in the same order. Dictionary id
    /// assignment (insertion order) is deliberately not compared.
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len()
            && self.time_tb == other.time_tb
            && self.core_tag == other.core_tag
            && self.code == other.code
            && (0..self.len())
                .all(|i| self.seq(i) == other.seq(i) && self.params(i) == other.params(i))
    }
}

impl Eq for EventColumns {}

impl EventColumns {
    /// An empty store with capacity for `n` events.
    pub fn with_capacity(n: usize) -> Self {
        EventColumns {
            time_tb: Vec::with_capacity(n),
            core_tag: Vec::with_capacity(n),
            code: Vec::with_capacity(n),
            stream_seq: Vec::with_capacity(n),
            wide_seq: Vec::new(),
            params_id: Vec::with_capacity(n),
            dict: ParamDict::default(),
        }
    }

    /// An empty store with capacity for `n` events that starts from
    /// this store's parameter dictionary, so every dictionary id of
    /// `self` names the same tuple in the result — the merge of a live
    /// tail into a closed base copies base events by id.
    pub(crate) fn with_dict_of(&self, n: usize) -> Self {
        let mut out = EventColumns::with_capacity(n);
        out.dict.clone_from(&self.dict);
        out
    }

    /// Reserves column capacity for `n` more events (the direct v2
    /// decode path knows the exact total from the block footers, so
    /// the columns never reallocate mid-decode).
    pub(crate) fn reserve_events(&mut self, n: usize) {
        self.time_tb.reserve_exact(n);
        self.core_tag.reserve_exact(n);
        self.code.reserve_exact(n);
        self.stream_seq.reserve_exact(n);
        self.params_id.reserve_exact(n);
    }

    /// Interns a parameter tuple, returning its dictionary id without
    /// appending an event — the direct decode path interns at block
    /// granularity and appends ids later, during the merge.
    pub(crate) fn intern_params(&mut self, params: &[u64]) -> u32 {
        self.dict.intern(params)
    }

    /// Interns every tuple of `dict` (see [`ParamDict::absorb`]),
    /// returning each one's id in this store.
    pub(crate) fn absorb_dict(&mut self, dict: &ParamDict) -> Vec<u32> {
        self.dict.absorb(dict)
    }

    fn push_seq(&mut self, stream_seq: u64) {
        match u32::try_from(stream_seq) {
            Ok(s) if s != SEQ_WIDE => self.stream_seq.push(s),
            _ => {
                let i = index32(self.stream_seq.len());
                self.stream_seq.push(SEQ_WIDE);
                self.wide_seq.push((i, stream_seq));
            }
        }
    }

    /// Appends one event whose parameter tuple is already interned.
    pub(crate) fn push_with_id(
        &mut self,
        time_tb: u64,
        core_tag: u8,
        code: EventCode,
        params_id: u32,
        stream_seq: u64,
    ) {
        self.time_tb.push(time_tb);
        self.core_tag.push(core_tag);
        self.code.push(code);
        self.push_seq(stream_seq);
        self.params_id.push(params_id);
    }

    /// Appends `codes.len()` events of core `tag` whose parameter
    /// tuples are already interned: the bulk form of
    /// [`push_with_id`](Self::push_with_id) one-shot placement copies a
    /// whole core segment with. Empty `seqs` number the events
    /// `0, 1, ...` (a stream's own records, in record order).
    ///
    /// Each source is freed as soon as it is copied, and the columns no
    /// source feeds are written last, so placing runs this way never
    /// holds more than the final store plus one run's times.
    pub(crate) fn extend_core(
        &mut self,
        tag: u8,
        codes: Vec<EventCode>,
        ids: Vec<u32>,
        times: impl IntoIterator<Item = u64>,
        seqs: Vec<u64>,
    ) {
        let n = codes.len();
        self.code.extend(codes);
        self.params_id.extend(ids);
        self.time_tb.extend(times);
        self.core_tag.resize(self.core_tag.len() + n, tag);
        if !seqs.is_empty() {
            seqs.into_iter().for_each(|s| self.push_seq(s));
        } else if n < SEQ_WIDE as usize {
            self.stream_seq.extend(0..n as u32);
        } else {
            (0..n as u64).for_each(|s| self.push_seq(s));
        }
    }

    /// The globally ordered `rows` placed core-major by `order`: one
    /// pass over the rows, scattering each to its store position.
    fn placed<E: Borrow<GlobalEvent>>(
        rows: impl IntoIterator<Item = E>,
        order: &GlobalOrder,
    ) -> EventColumns {
        let n = order.rank.len();
        let mut out = EventColumns {
            time_tb: vec![0; n],
            core_tag: vec![0; n],
            code: vec![EventCode::SpeStop; n],
            stream_seq: vec![0; n],
            wide_seq: Vec::new(),
            params_id: vec![0; n],
            dict: ParamDict::default(),
        };
        for (e, &p) in rows.into_iter().zip(&order.by_rank) {
            let (e, p) = (e.borrow(), p as usize);
            out.time_tb[p] = e.time_tb;
            out.core_tag[p] = e.core.tag();
            out.code[p] = e.code;
            out.params_id[p] = out.dict.intern(&e.params);
            out.stream_seq[p] = match u32::try_from(e.stream_seq) {
                Ok(s) if s != SEQ_WIDE => s,
                _ => {
                    out.wide_seq.push((p as u32, e.stream_seq));
                    SEQ_WIDE
                }
            };
        }
        out.wide_seq.sort_unstable_by_key(|&(i, _)| i);
        out
    }

    /// Appends one event.
    pub fn push(
        &mut self,
        time_tb: u64,
        core: TraceCore,
        code: EventCode,
        params: &[u64],
        stream_seq: u64,
    ) {
        let id = self.intern_params(params);
        self.push_with_id(time_tb, core.tag(), code, id, stream_seq);
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.time_tb.len()
    }

    /// Whether the store holds no events.
    pub fn is_empty(&self) -> bool {
        self.time_tb.is_empty()
    }

    /// The timestamp column.
    pub fn times(&self) -> &[u64] {
        &self.time_tb
    }

    /// The core-tag column ([`TraceCore::tag`] values).
    pub fn tags(&self) -> &[u8] {
        &self.core_tag
    }

    /// Event `i`'s producing core.
    pub fn core(&self, i: usize) -> TraceCore {
        TraceCore::from_tag(self.core_tag[i])
    }

    /// The event-code column.
    pub fn codes(&self) -> &[EventCode] {
        &self.code
    }

    /// Event `i`'s per-stream sequence number.
    pub fn seq(&self, i: usize) -> u64 {
        match self.stream_seq[i] {
            SEQ_WIDE => {
                // Invariant: every `SEQ_WIDE` sentinel is pushed or
                // inserted together with its `wide_seq` entry.
                let at = self
                    .wide_seq
                    .binary_search_by_key(&(i as u32), |&(idx, _)| idx)
                    .expect("wide sequence recorded for sentinel");
                self.wide_seq[at].1
            }
            s => u64::from(s),
        }
    }

    /// Event `i`'s parameter-dictionary id.
    pub fn params_id(&self, i: usize) -> u32 {
        self.params_id[i]
    }

    /// The parameter tuple behind dictionary id `id`.
    pub fn dict_params(&self, id: u32) -> &[u64] {
        self.dict.get(id)
    }

    /// Distinct parameter tuples in the dictionary.
    pub fn dict_len(&self) -> usize {
        self.dict.len()
    }

    /// Event `i`'s parameter words.
    pub fn params(&self, i: usize) -> &[u64] {
        self.dict_params(self.params_id[i])
    }

    /// Resident bytes of the column arrays, overflow table and
    /// parameter dictionary (capacity-based, so reserved-but-untouched
    /// tail pages of an exact reservation still count).
    pub fn bytes_in_memory(&self) -> usize {
        self.time_tb.capacity() * 8
            + self.core_tag.capacity()
            + self.code.capacity() * 2
            + self.stream_seq.capacity() * 4
            + self.wide_seq.capacity() * 16
            + self.params_id.capacity() * 4
            + self.dict.bytes_in_memory()
    }

    /// A borrowed view of event `i`.
    pub fn view(&self, i: usize) -> EventView<'_> {
        EventView {
            time_tb: self.time_tb[i],
            core: self.core(i),
            code: self.code[i],
            params: self.params(i),
            stream_seq: self.seq(i),
        }
    }

    /// Views of every event, in global order.
    pub fn iter(&self) -> impl Iterator<Item = EventView<'_>> {
        (0..self.len()).map(move |i| self.view(i))
    }
}

/// The global `(time_tb, core tag, stream_seq)` order of a core-major
/// store, as a permutation between global ranks and store positions.
/// Built on first use by a consumer that needs the global order
/// (listings, causality, happens-before and lint, phases), never by
/// per-core products.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GlobalOrder {
    /// Store position of the event at each global rank.
    by_rank: Vec<u32>,
    /// Global rank of the event at each store position.
    rank: Vec<u32>,
}

impl GlobalOrder {
    /// The order of globally ordered events with core tags `tags`,
    /// placed core-major by a stable counting sort by tag: the sort's
    /// scatter is the permutation.
    fn of_tags(tags: &[u8]) -> Self {
        let n = tags.len();
        index32(n);
        let mut next = [0u32; 256];
        for &tag in tags {
            next[tag as usize] += 1;
        }
        let mut at = 0u32;
        for slot in &mut next {
            (*slot, at) = (at, at + *slot);
        }
        let mut by_rank = Vec::with_capacity(n);
        let mut rank = vec![0u32; n];
        for (g, &tag) in tags.iter().enumerate() {
            let p = next[tag as usize];
            next[tag as usize] += 1;
            by_rank.push(p);
            rank[p as usize] = g as u32;
        }
        GlobalOrder { by_rank, rank }
    }

    /// [`of_tags`](Self::of_tags) over globally ordered rows.
    fn of_rows(rows: &[GlobalEvent]) -> Self {
        let tags: Vec<u8> = rows.iter().map(|e| e.core.tag()).collect();
        Self::of_tags(&tags)
    }

    /// Store positions in global order: `by_rank()[r]` is the event of
    /// rank `r`.
    pub fn by_rank(&self) -> &[u32] {
        &self.by_rank
    }

    /// Global ranks in store order: `ranks()[i]` is the rank of store
    /// event `i`. Sliced by a core's segment, it is that core's rank
    /// list, ascending.
    pub fn ranks(&self) -> &[u32] {
        &self.rank
    }
}

/// Counts the global-order builds of one store (a memo, so at most
/// one); copied along with the store.
#[derive(Debug, Default)]
struct BuildCount(AtomicUsize);

impl Clone for BuildCount {
    fn clone(&self) -> Self {
        BuildCount(AtomicUsize::new(self.0.load(Ordering::Relaxed)))
    }
}

/// A fully reconstructed trace in columnar form: the drop-in
/// counterpart of [`AnalyzedTrace`] that every memoized product
/// iterates, with context names interned.
///
/// Events are stored core-major: each core's events form one
/// contiguous, time-ordered segment, and the segments sit in core-tag
/// order, so a per-core product reads a range. The global order is a
/// derived view ([`order`](Self::order)), built on first use.
#[derive(Debug, Clone)]
pub struct ColumnarTrace {
    /// Header copied from the trace file.
    pub header: TraceHeader,
    /// All events, core-major: sorted by `(core tag, time_tb,
    /// stream_seq)`, ties between streams sharing a core broken by
    /// stream index. [`ColumnarTrace::order`] gives the global
    /// `(time_tb, core tag, stream_seq)` order.
    pub events: EventColumns,
    /// Per-SPE sync anchors.
    pub anchors: Vec<SpeAnchor>,
    /// Records the tracers dropped (from stream metadata).
    pub dropped: u64,
    interner: Interner,
    /// `(ctx, name)` pairs in original file order, names interned.
    ctx_syms: Vec<(u32, Sym)>,
    order: OnceLock<GlobalOrder>,
    order_builds: BuildCount,
    /// OR of [`EventGroup`] bits observed per core tag (256 slots).
    group_masks: OnceLock<Vec<u32>>,
}

impl ColumnarTrace {
    /// Builds the columnar form from a borrowed row trace.
    pub fn from_analyzed(t: &AnalyzedTrace) -> Self {
        let order = GlobalOrder::of_rows(&t.events);
        let events = EventColumns::placed(&t.events, &order);
        Self::empty(t.header)
            .with_meta_of(t)
            .with_order(events, order)
    }

    /// Builds the columnar form by consuming a row trace, freeing each
    /// per-event parameter allocation as it is flattened.
    pub fn from_rows(t: AnalyzedTrace) -> Self {
        let meta = Self::empty(t.header).with_meta_of(&t);
        let order = GlobalOrder::of_rows(&t.events);
        meta.with_order(EventColumns::placed(t.events, &order), order)
    }

    /// This store with `t`'s anchors, drop count and context names.
    fn with_meta_of(mut self, t: &AnalyzedTrace) -> Self {
        self.anchors = t.anchors.clone();
        self.dropped = t.dropped;
        self.set_ctx_names(&t.ctx_names);
        self
    }

    /// Materializes the row form: an [`AnalyzedTrace`] byte-identical
    /// to the one the store was built from (same event values in the
    /// same global order, same context names in the same order).
    pub fn materialize(&self) -> AnalyzedTrace {
        AnalyzedTrace {
            header: self.header,
            events: self.ordered().map(|v| v.to_event()).collect(),
            ctx_names: self
                .ctx_syms
                .iter()
                .map(|&(c, s)| (c, self.interner.resolve(s).to_owned()))
                .collect(),
            anchors: self.anchors.clone(),
            dropped: self.dropped,
        }
    }

    /// Keeps only events passing `pred`, preserving order. Invalidates
    /// the memoized global order and group masks.
    pub fn retain_views(&mut self, mut pred: impl FnMut(&EventView<'_>) -> bool) {
        let mut kept = EventColumns::with_capacity(self.events.len());
        for v in self.events.iter() {
            if pred(&v) {
                kept.push(v.time_tb, v.core, v.code, v.params, v.stream_seq);
            }
        }
        self.events = kept;
        self.order = OnceLock::new();
        self.group_masks = OnceLock::new();
    }

    /// An empty store carrying only the header.
    pub(crate) fn empty(header: TraceHeader) -> Self {
        ColumnarTrace {
            header,
            events: EventColumns::with_capacity(0),
            anchors: Vec::new(),
            dropped: 0,
            interner: Interner::new(),
            ctx_syms: Vec::new(),
            order: OnceLock::new(),
            order_builds: BuildCount::default(),
            group_masks: OnceLock::new(),
        }
    }

    /// A store with this trace's header, anchors, drop count and
    /// context names around the core-major `events`, with fresh memos.
    pub(crate) fn with_events(&self, events: EventColumns) -> Self {
        ColumnarTrace {
            header: self.header,
            events,
            anchors: self.anchors.clone(),
            dropped: self.dropped,
            interner: self.interner.clone(),
            ctx_syms: self.ctx_syms.clone(),
            order: OnceLock::new(),
            order_builds: BuildCount::default(),
            group_masks: OnceLock::new(),
        }
    }

    /// [`with_events`](Self::with_events) for core-major `events` whose
    /// global order is already known.
    fn with_order(&self, events: EventColumns, order: GlobalOrder) -> Self {
        let out = self.with_events(events);
        let _ = out.order.set(order);
        out
    }

    /// Replaces the anchor list (anchors can gain entries as streaming
    /// ingestion discovers `PpeCtxRun` records).
    pub(crate) fn set_anchors(&mut self, anchors: Vec<SpeAnchor>) {
        self.anchors = anchors;
    }

    /// Replaces the tracer-dropped total from stream metadata.
    pub(crate) fn set_dropped(&mut self, dropped: u64) {
        self.dropped = dropped;
    }

    /// Replaces the context-name table (the name table arrives at the
    /// end of a streamed trace image).
    pub(crate) fn set_ctx_names(&mut self, names: &[(u32, String)]) {
        self.interner = Interner::new();
        self.ctx_syms = names
            .iter()
            .map(|(c, n)| (*c, self.interner.intern(n)))
            .collect();
    }

    /// The string table context names resolve through.
    pub fn interner(&self) -> &Interner {
        &self.interner
    }

    /// `(ctx, name)` pairs in original file order.
    pub fn ctx_entries(&self) -> impl Iterator<Item = (u32, &str)> {
        self.ctx_syms
            .iter()
            .map(move |&(c, s)| (c, self.interner.resolve(s)))
    }

    /// The name of context `ctx`, if recorded (first match wins, as in
    /// [`AnalyzedTrace::ctx_name`]).
    pub fn ctx_name(&self, ctx: u32) -> Option<&str> {
        self.ctx_syms
            .iter()
            .find(|(c, _)| *c == ctx)
            .map(|&(_, s)| self.interner.resolve(s))
    }

    /// Every core's segment of the store, tag-sorted: one binary
    /// search over the (core-major) tag column per core.
    pub fn segments(&self) -> Vec<(TraceCore, Range<usize>)> {
        let tags = self.events.tags();
        let mut out = Vec::new();
        let mut lo = 0;
        while lo < tags.len() {
            let tag = tags[lo];
            let hi = lo + tags[lo..].partition_point(|&t| t <= tag);
            out.push((TraceCore::from_tag(tag), lo..hi));
            lo = hi;
        }
        out
    }

    /// `core`'s segment: the store range holding its events, in time
    /// order (empty when the core produced nothing).
    pub fn core_slice(&self, core: TraceCore) -> Range<usize> {
        let (tags, tag) = (self.events.tags(), core.tag());
        let lo = tags.partition_point(|&t| t < tag);
        lo..lo + tags[lo..].partition_point(|&t| t == tag)
    }

    /// Views of `core`'s events, in time order — the columnar
    /// counterpart of [`AnalyzedTrace::core_events`], walking the
    /// core's segment instead of filtering the whole trace.
    pub fn core_events(&self, core: TraceCore) -> impl Iterator<Item = EventView<'_>> {
        self.core_slice(core).map(move |i| self.events.view(i))
    }

    /// The global order, built on first call by a loser tree over the
    /// core segments that writes only ranks, and memoized.
    pub fn order(&self) -> &GlobalOrder {
        self.order.get_or_init(|| {
            self.order_builds.0.fetch_add(1, Ordering::Relaxed);
            let n = index32(self.events.len()) as usize;
            let segs = self.segments();
            let (times, tags) = (self.events.times(), self.events.tags());
            // Segment heads keyed `(time, tag)`: segments hold distinct
            // cores, so keys never tie, and an exhausted segment's
            // `u128::MAX` sorts after every real key.
            let key = |s: usize, p: usize| match p < segs[s].1.end {
                true => u128::from(times[p]) << 8 | u128::from(tags[p]),
                false => u128::MAX,
            };
            let k = segs.len();
            let mut next: Vec<usize> = segs.iter().map(|(_, r)| r.start).collect();
            let mut head: Vec<u128> = (0..k).map(|s| key(s, next[s])).collect();
            // Node `v` in `1..k` has children `2v` and `2v + 1`; position
            // `k + s` is segment `s`'s leaf. `loser[v]` is the segment that
            // lost the match at `v`; the build plays every match once.
            let mut loser = vec![0usize; k];
            let mut won: Vec<usize> = (0..2 * k).map(|v| v.saturating_sub(k)).collect();
            for v in (1..k).rev() {
                let (a, b) = (won[2 * v], won[2 * v + 1]);
                (won[v], loser[v]) = if head[b] < head[a] { (b, a) } else { (a, b) };
            }
            let mut w = won.get(1).copied().unwrap_or(0);
            let mut by_rank = Vec::with_capacity(n);
            let mut rank = vec![0u32; n];
            for r in 0..n {
                let p = next[w];
                rank[p] = r as u32;
                by_rank.push(p as u32);
                next[w] = p + 1;
                head[w] = key(w, p + 1);
                let mut v = (w + k) / 2;
                while v > 0 {
                    if head[loser[v]] < head[w] {
                        std::mem::swap(&mut loser[v], &mut w);
                    }
                    v /= 2;
                }
            }
            GlobalOrder { by_rank, rank }
        })
    }

    /// How many times this store's global order was built by
    /// [`order`](Self::order): 0 until a global-order consumer asks, 1
    /// after (a store placed from globally ordered columns gets its
    /// order from the placement and reports 0).
    pub fn order_builds(&self) -> usize {
        self.order_builds.0.load(Ordering::Relaxed)
    }

    /// Views of every event, in global order.
    pub fn ordered(&self) -> impl Iterator<Item = EventView<'_>> {
        (self.order().by_rank.iter()).map(move |&i| self.events.view(i as usize))
    }

    /// `core`'s events as global ranks, ascending.
    pub fn core_ranks(&self, core: TraceCore) -> &[u32] {
        &self.order().rank[self.core_slice(core)]
    }

    /// The global order's key of store event `i`, `(time, core tag,
    /// store position)` packed into one integer: ranks ascend with it,
    /// so a few events from several segments merge into global order
    /// by it without the order.
    pub(crate) fn order_key(&self, i: usize) -> u128 {
        let (time, tag) = (self.events.times()[i], self.events.tags()[i]);
        u128::from(time) << 40 | u128::from(tag) << 32 | i as u128
    }

    /// The global rank of store event `i`, without the order: over the
    /// segments `segs` (from [`segments`](Self::segments)), the number
    /// of events whose `(time, tag)` key sorts before `i`'s (a
    /// partition point per other segment), plus `i`'s position in its
    /// own.
    pub(crate) fn rank_of(&self, segs: &[(TraceCore, Range<usize>)], i: usize) -> usize {
        let (times, tags) = (self.events.times(), self.events.tags());
        let (t, tag) = (times[i], tags[i]);
        (segs.iter())
            .map(|(core, r)| match core.tag().cmp(&tag) {
                std::cmp::Ordering::Less => times[r.clone()].partition_point(|&x| x <= t),
                std::cmp::Ordering::Equal => i - r.start,
                std::cmp::Ordering::Greater => times[r.clone()].partition_point(|&x| x < t),
            })
            .sum()
    }

    /// OR of the [`EventGroup`] bits `core` ever recorded. Computed in
    /// one pass over the core and code columns on first use; lets
    /// per-core scans (lint rules especially) skip cores that cannot
    /// contain the codes they match.
    pub fn core_group_mask(&self, core: TraceCore) -> u32 {
        let masks = self.group_masks.get_or_init(|| {
            let mut m = vec![0u32; 256];
            let tags = self.events.tags();
            let codes = self.events.codes();
            for i in 0..self.events.len() {
                m[tags[i] as usize] |= codes[i].group() as u32;
            }
            m
        });
        masks[core.tag() as usize]
    }

    /// Whether `core` recorded any event in `group`.
    pub fn core_has_group(&self, core: TraceCore, group: EventGroup) -> bool {
        self.core_group_mask(core) & group as u32 != 0
    }

    /// Every core that recorded at least one event, tag-sorted — the
    /// stream universe the happens-before engine sizes its vector
    /// clocks over.
    pub fn cores(&self) -> Vec<TraceCore> {
        self.segments().into_iter().map(|(c, _)| c).collect()
    }

    /// The SPE indices that produced events, ascending.
    pub fn spes(&self) -> Vec<u8> {
        self.segments()
            .into_iter()
            .filter_map(|(c, _)| match c {
                TraceCore::Spe(i) => Some(i),
                TraceCore::Ppe(_) => None,
            })
            .collect()
    }

    /// The first timestamp in the trace (ticks): the earliest segment
    /// head.
    pub fn start_tb(&self) -> u64 {
        let times = self.events.times();
        (self.segments().iter())
            .map(|(_, r)| times[r.start])
            .min()
            .unwrap_or(0)
    }

    /// The last timestamp in the trace (ticks): the latest segment
    /// tail.
    pub fn end_tb(&self) -> u64 {
        let times = self.events.times();
        (self.segments().iter())
            .map(|(_, r)| times[r.end - 1])
            .max()
            .unwrap_or(0)
    }

    /// Converts timebase ticks to nanoseconds using the header clocks.
    pub fn tb_to_ns(&self, tb: u64) -> f64 {
        tb as f64 * self.header.timebase_divider as f64 * 1e9 / self.header.core_hz as f64
    }

    /// Resident bytes of the event store plus trace metadata — the
    /// figure behind the `volume_smoke` in-memory bytes/event gate.
    /// Memoized products (the global order, group masks) are excluded:
    /// they are lazy and never built on the pure decode path.
    pub fn bytes_in_memory(&self) -> usize {
        self.events.bytes_in_memory()
            + self.anchors.capacity() * std::mem::size_of::<SpeAnchor>()
            + self.ctx_syms.capacity() * std::mem::size_of::<(u32, Sym)>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdt::VERSION;

    fn header() -> TraceHeader {
        TraceHeader {
            version: VERSION,
            num_ppe_threads: 1,
            num_spes: 2,
            core_hz: 3_200_000_000,
            timebase_divider: 120,
            dec_start: u32::MAX,
            group_mask: u32::MAX,
            spe_buffer_bytes: 2048,
        }
    }

    fn sample() -> AnalyzedTrace {
        use EventCode::*;
        let ev = |t: u64, core, code, params: Vec<u64>, seq| GlobalEvent {
            time_tb: t,
            core,
            code,
            params,
            stream_seq: seq,
        };
        let mut events = vec![
            ev(5, TraceCore::Ppe(0), PpeCtxRun, vec![0, 0, 99], 0),
            ev(10, TraceCore::Spe(0), SpeCtxStart, vec![0], 0),
            ev(
                20,
                TraceCore::Spe(0),
                SpeDmaGet,
                vec![0x100, 0x2000, 4096, 3],
                1,
            ),
            ev(25, TraceCore::Spe(1), SpeCtxStart, vec![1], 0),
            ev(30, TraceCore::Spe(0), SpeTagWaitEnd, vec![1 << 3], 2),
            ev(40, TraceCore::Spe(0), SpeStop, vec![], 3),
            ev(50, TraceCore::Spe(1), SpeStop, vec![0], 1),
        ];
        events.sort_by_key(|e| (e.time_tb, e.core.tag(), e.stream_seq));
        AnalyzedTrace {
            header: header(),
            events,
            ctx_names: vec![
                (0, "alpha".into()),
                (1, "beta".into()),
                (2, "alpha2".into()),
            ],
            anchors: vec![SpeAnchor {
                spe: 0,
                ctx: 0,
                run_tb: 5,
                dec_start: 99,
            }],
            dropped: 3,
        }
    }

    #[test]
    fn interner_round_trips_and_dedups() {
        let mut i = Interner::new();
        let a = i.intern("spe_kernel");
        let b = i.intern("other");
        let a2 = i.intern("spe_kernel");
        assert_eq!(a, a2, "equal strings intern to equal symbols");
        assert_ne!(a, b);
        assert_eq!(i.resolve(a), "spe_kernel");
        assert_eq!(i.resolve(b), "other");
        assert_eq!(i.get("other"), Some(b));
        assert_eq!(i.get("missing"), None);
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn params_dictionary_degenerates_on_distinct_tuples() {
        // All-distinct tuples: the index must flip to append-only
        // after the warm-up window, and every tuple must still read
        // back exactly.
        let mut distinct = EventColumns::default();
        let n = DICT_DEGENERATE_AFTER as usize + 1000;
        for i in 0..n {
            distinct.push(
                i as u64,
                TraceCore::Spe(0),
                EventCode::SpeDmaGet,
                &[i as u64, !(i as u64)],
                i as u64,
            );
        }
        assert!(
            distinct.dict.degenerate,
            "all-distinct params must trip append-only mode"
        );
        assert!(distinct.dict.slots.is_empty(), "hash table freed");
        for i in 0..n {
            assert_eq!(distinct.params(i), &[i as u64, !(i as u64)]);
        }

        // A handful of repeating tuples: the dictionary must stay
        // interned and collapse them to few ids.
        let mut repetitive = EventColumns::default();
        for i in 0..n {
            repetitive.push(
                i as u64,
                TraceCore::Spe(0),
                EventCode::SpeDmaGet,
                &[(i % 4) as u64],
                i as u64,
            );
        }
        assert!(!repetitive.dict.degenerate);
        assert_eq!(repetitive.dict_len(), 4);
        for i in 0..n {
            assert_eq!(repetitive.params(i), &[(i % 4) as u64]);
        }
    }

    #[test]
    fn materialize_is_byte_identical() {
        let t = sample();
        for cols in [
            ColumnarTrace::from_analyzed(&t),
            ColumnarTrace::from_rows(t.clone()),
        ] {
            let back = cols.materialize();
            assert_eq!(back.events, t.events);
            assert_eq!(back.ctx_names, t.ctx_names);
            assert_eq!(back.anchors, t.anchors);
            assert_eq!(back.dropped, t.dropped);
            assert_eq!(back.header, t.header);
        }
    }

    #[test]
    fn views_project_rows_exactly() {
        let t = sample();
        let cols = ColumnarTrace::from_analyzed(&t);
        assert_eq!(cols.events.len(), t.events.len());
        for (v, e) in cols.ordered().zip(&t.events) {
            assert_eq!(v.time_tb, e.time_tb);
            assert_eq!(v.core, e.core);
            assert_eq!(v.code, e.code);
            assert_eq!(v.params, e.params.as_slice());
            assert_eq!(v.stream_seq, e.stream_seq);
            assert_eq!(v.to_event(), *e);
        }
    }

    #[test]
    fn core_accessors_match_row_trace() {
        let t = sample();
        let cols = ColumnarTrace::from_analyzed(&t);
        assert_eq!(cols.spes(), t.spes());
        assert_eq!(cols.start_tb(), t.start_tb());
        assert_eq!(cols.end_tb(), t.end_tb());
        assert_eq!(cols.tb_to_ns(100), t.tb_to_ns(100));
        for core in [
            TraceCore::Ppe(0),
            TraceCore::Spe(0),
            TraceCore::Spe(1),
            TraceCore::Spe(7),
        ] {
            let via_cols: Vec<GlobalEvent> = cols.core_events(core).map(|v| v.to_event()).collect();
            let via_rows: Vec<GlobalEvent> = t.core_events(core).cloned().collect();
            assert_eq!(via_cols, via_rows, "core {core}");
        }
        for ctx in [0u32, 1, 2, 9] {
            assert_eq!(cols.ctx_name(ctx), t.ctx_name(ctx), "ctx {ctx}");
        }
    }

    #[test]
    fn group_masks_reflect_per_core_codes() {
        let t = sample();
        let mut cols = ColumnarTrace::from_analyzed(&t);
        assert!(cols.core_has_group(TraceCore::Spe(0), EventGroup::SpeDma));
        assert!(cols.core_has_group(TraceCore::Spe(0), EventGroup::SpeLifecycle));
        assert!(!cols.core_has_group(TraceCore::Spe(1), EventGroup::SpeDma));
        assert!(cols.core_has_group(TraceCore::Ppe(0), EventGroup::PpeLifecycle));
        assert_eq!(cols.core_group_mask(TraceCore::Spe(7)), 0);
        // Retain invalidates the memo: dropping the DMA events must
        // drop the bit.
        cols.retain_views(|v| v.code.group() != EventGroup::SpeDma);
        assert!(!cols.core_has_group(TraceCore::Spe(0), EventGroup::SpeDma));
        assert!(cols.core_has_group(TraceCore::Spe(0), EventGroup::SpeLifecycle));
    }

    #[test]
    fn store_is_core_major_and_the_order_is_global() {
        let t = sample();
        for cols in [
            ColumnarTrace::from_analyzed(&t),
            ColumnarTrace::empty(t.header).with_events(ColumnarTrace::from_rows(t.clone()).events),
        ] {
            let keys: Vec<(u8, u64)> = (cols.events.iter())
                .map(|v| (v.core.tag(), v.time_tb))
                .collect();
            assert!(keys.windows(2).all(|w| w[0] <= w[1]), "core-major");
            let segs = cols.segments();
            assert_eq!(
                segs.iter().map(|(c, r)| (*c, r.len())).collect::<Vec<_>>(),
                vec![
                    (TraceCore::Ppe(0), 1),
                    (TraceCore::Spe(0), 4),
                    (TraceCore::Spe(1), 2)
                ]
            );
            assert_eq!(cols.core_slice(TraceCore::Spe(1)), 5..7);
            assert_eq!(cols.core_slice(TraceCore::Spe(7)), 7..7);
            let global: Vec<GlobalEvent> = cols.ordered().map(|v| v.to_event()).collect();
            assert_eq!(global, t.events);
            let order = cols.order();
            for (r, &i) in order.by_rank().iter().enumerate() {
                assert_eq!(order.ranks()[i as usize] as usize, r);
            }
            assert_eq!(cols.core_ranks(TraceCore::Spe(1)), &[3, 6]);
        }
    }

    #[test]
    fn the_order_is_built_once_and_only_on_demand() {
        let t = sample();
        // Placed from the global order: the placement's scatter is the
        // order, nothing to build.
        let placed = ColumnarTrace::from_analyzed(&t);
        let _ = placed.materialize();
        assert_eq!(placed.order_builds(), 0);
        // Placed core-major: per-core reads build nothing, the first
        // global read builds the order once.
        let cols = ColumnarTrace::empty(t.header).with_events(placed.events.clone());
        let _ = (cols.spes(), cols.start_tb(), cols.end_tb());
        let _ = cols.core_events(TraceCore::Spe(0)).count();
        assert_eq!(cols.order_builds(), 0);
        let _ = cols.materialize();
        let _ = cols.core_ranks(TraceCore::Spe(0));
        assert_eq!(cols.order_builds(), 1);
        assert_eq!(cols.order(), placed.order());
    }

    #[test]
    fn retain_preserves_order_and_invalidates_the_order() {
        let t = sample();
        let mut cols = ColumnarTrace::from_analyzed(&t);
        let _ = cols.order();
        cols.retain_views(|v| v.core == TraceCore::Spe(0));
        assert_eq!(cols.order().by_rank(), &[0, 1, 2, 3]);
        assert!(cols.events.iter().all(|v| v.core == TraceCore::Spe(0)));
        assert_eq!(cols.spes(), vec![0]);
        let times: Vec<u64> = cols.events.times().to_vec();
        let want: Vec<u64> = t
            .events
            .iter()
            .filter(|e| e.core == TraceCore::Spe(0))
            .map(|e| e.time_tb)
            .collect();
        assert_eq!(times, want);
    }

    #[test]
    fn empty_store_is_well_behaved() {
        let t = AnalyzedTrace {
            header: header(),
            events: vec![],
            ctx_names: vec![],
            anchors: vec![],
            dropped: 0,
        };
        let cols = ColumnarTrace::from_analyzed(&t);
        assert!(cols.events.is_empty());
        assert_eq!(cols.start_tb(), 0);
        assert_eq!(cols.end_tb(), 0);
        assert!(cols.spes().is_empty());
        assert_eq!(cols.core_events(TraceCore::Spe(0)).count(), 0);
        let back = cols.materialize();
        assert!(back.events.is_empty());
    }
}
