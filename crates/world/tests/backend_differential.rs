//! Differential suite: [`ShardedWorld`] against the single-threaded
//! [`World`].
//!
//! Every property here runs the *same* arbitrary operation sequence against
//! both worlds and demands they agree on everything observable: final chunk
//! bytes, loaded-chunk sets, modification counters and stateful-block
//! counts. The plain world has no dirty tracking, so the suite replays the
//! sharded world's write-back contract from the plain world's outcomes: a
//! [`DirtyModel`] records which chunks each shard owes write-back and each
//! shard's epoch, and every drain must match it exactly. Any divergence a
//! storage pipeline or a persistence drain could observe shows up here as a
//! shrunk counterexample.

use std::collections::BTreeSet;

use proptest::prelude::*;
use servo_types::consts::CHUNK_HEIGHT;
use servo_types::{BlockPos, ChunkPos};
use servo_world::{Block, ShardDelta, ShardedWorld, World};

/// One operation in a generated differential schedule. Coordinates are kept
/// small so sequences revisit chunks (revisits are where dirty-set and
/// counter bookkeeping can drift).
#[derive(Debug, Clone)]
enum Op {
    /// A single-block write (possibly to an unloaded chunk — the error must
    /// agree too).
    Set {
        x: i32,
        y: i32,
        z: i32,
        block: Block,
    },
    /// A batch write through `set_blocks`.
    Batch {
        writes: Vec<((i32, i32, i32), Block)>,
    },
    /// A box fill through `fill_region`.
    Fill {
        x0: i32,
        z0: i32,
        dx: i32,
        dz: i32,
        y0: i32,
        dy: i32,
        block: Block,
    },
    /// Load a chunk (idempotent).
    Ensure { cx: i32, cz: i32 },
    /// Unload a chunk (possibly absent).
    Remove { cx: i32, cz: i32 },
    /// Drain the dirty sets mid-sequence; the deltas must match the model,
    /// and draining must not disturb any other observable state.
    Drain,
    /// Re-shard the world through `with_shards`: chunks and pending dirt
    /// carry over, epochs restart from zero.
    Reshard { shards: usize },
}

fn arb_block() -> impl Strategy<Value = Block> {
    prop::sample::select(Block::ALL.to_vec())
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        5 => ((-40i32..40, 0i32..CHUNK_HEIGHT, -40i32..40), arb_block())
            .prop_map(|((x, y, z), block)| Op::Set { x, y, z, block }),
        3 => prop::collection::vec(
            ((-40i32..40, 0i32..CHUNK_HEIGHT, -40i32..40), arb_block()),
            1..24,
        )
        .prop_map(|writes| Op::Batch { writes }),
        2 => (-36i32..36, -36i32..36, 0i32..20, 0i32..20, 1i32..60, 0i32..6, arb_block())
            .prop_map(|(x0, z0, dx, dz, y0, dy, block)| Op::Fill { x0, z0, dx, dz, y0, dy, block }),
        2 => (-4i32..4, -4i32..4).prop_map(|(cx, cz)| Op::Ensure { cx, cz }),
        1 => (-4i32..4, -4i32..4).prop_map(|(cx, cz)| Op::Remove { cx, cz }),
        1 => Just(Op::Drain),
        1 => prop::sample::select(vec![1usize, 2, 4, 8, 16, 32])
            .prop_map(|shards| Op::Reshard { shards }),
    ]
}

/// The write-back contract of [`ShardedWorld`], replayed from the plain
/// world: the chunks modified since the last drain, and every shard's
/// lifetime modification count.
struct DirtyModel {
    dirty: BTreeSet<(i32, i32)>,
    epochs: Vec<u64>,
}

impl DirtyModel {
    fn new(shard_count: usize) -> Self {
        DirtyModel {
            dirty: BTreeSet::new(),
            epochs: vec![0; shard_count],
        }
    }

    /// Records `mods` block modifications against the chunk at `pos`.
    fn note(&mut self, world: &ShardedWorld, pos: ChunkPos, mods: u64) {
        if mods > 0 {
            self.dirty.insert((pos.x, pos.z));
            self.epochs[world.shard_of(pos)] += mods;
        }
    }

    /// The deltas a drain must return: one per dirty shard, in shard order,
    /// chunks sorted by `(x, z)`.
    fn drain(&mut self, world: &ShardedWorld) -> Vec<ShardDelta> {
        let mut deltas: Vec<ShardDelta> = Vec::new();
        for (x, z) in std::mem::take(&mut self.dirty) {
            let pos = ChunkPos::new(x, z);
            let shard = world.shard_of(pos);
            match deltas.iter_mut().find(|d| d.shard == shard) {
                Some(delta) => delta.chunks.push(pos),
                None => deltas.push(ShardDelta {
                    shard,
                    epoch: self.epochs[shard],
                    chunks: vec![pos],
                }),
            }
        }
        deltas.sort_by_key(|d| d.shard);
        deltas
    }
}

/// The worlds under differential test, stepped in lockstep.
struct Duo {
    plain: World,
    sharded: ShardedWorld,
    model: DirtyModel,
}

impl Duo {
    fn new() -> Self {
        let mut plain = World::flat(4);
        let sharded = ShardedWorld::flat(4);
        for cx in -3..3 {
            for cz in -3..3 {
                let pos = ChunkPos::new(cx, cz);
                plain.ensure_chunk_at(pos);
                sharded.ensure_chunk_at(pos);
            }
        }
        let model = DirtyModel::new(sharded.shard_count());
        Duo {
            plain,
            sharded,
            model,
        }
    }

    /// Applies one op to both worlds, checking that outcome-level results
    /// (ok-ness, written counts, removed-chunk bytes) agree, and advances
    /// the dirty model.
    fn apply(&mut self, op: &Op) {
        match op {
            Op::Set { x, y, z, block } => {
                let pos = BlockPos::new(*x, *y, *z);
                let a = self.plain.set_block(pos, *block).is_ok();
                let b = self.sharded.set_block(pos, *block).is_ok();
                prop_assert_eq!(a, b, "set_block ok-ness at {}", pos);
                if a {
                    self.model.note(&self.sharded, ChunkPos::from(pos), 1);
                }
            }
            Op::Batch { writes } => {
                // A *failed* batch leaves a documented, intentionally
                // different partial state: the plain world stops at the
                // failing write in input order, the sharded world completes
                // whole shards before the failing one. This property covers
                // batches that succeed, so writes to unloaded chunks are
                // filtered out here (the loaded sets are identical by the
                // other assertions). Failing batches have their own
                // property below.
                let batch: Vec<(BlockPos, Block)> = writes
                    .iter()
                    .map(|((x, y, z), b)| (BlockPos::new(*x, *y, *z), *b))
                    .filter(|(pos, _)| self.plain.is_loaded(ChunkPos::from(*pos)))
                    .collect();
                let a = self.plain.set_blocks(batch.clone()).unwrap();
                let b = self.sharded.set_blocks(batch.clone()).unwrap();
                prop_assert_eq!(a, b, "batch written count");
                for (pos, _) in batch {
                    self.model.note(&self.sharded, ChunkPos::from(pos), 1);
                }
            }
            Op::Fill {
                x0,
                z0,
                dx,
                dz,
                y0,
                dy,
                block,
            } => {
                let min = BlockPos::new(*x0, *y0, *z0);
                let max = BlockPos::new(x0 + dx, y0 + dy, z0 + dz);
                let before = self.chunk_modifications();
                let a = self.plain.fill_region(min, max, *block);
                let b = self.sharded.fill_region(min, max, *block);
                prop_assert_eq!(a.is_ok(), b.is_ok());
                if let (Ok(a), Ok(b)) = (a, b) {
                    prop_assert_eq!(a, b, "fill changed count");
                }
                for (pos, mods) in before {
                    let after = self.plain.chunk(pos).unwrap().modifications();
                    self.model.note(&self.sharded, pos, after - mods);
                }
            }
            Op::Ensure { cx, cz } => {
                let pos = ChunkPos::new(*cx, *cz);
                self.plain.ensure_chunk_at(pos);
                self.sharded.ensure_chunk_at(pos);
            }
            Op::Remove { cx, cz } => {
                let pos = ChunkPos::new(*cx, *cz);
                let a = self.plain.remove_chunk(pos);
                let b = self.sharded.remove_chunk(pos);
                prop_assert_eq!(a.is_some(), b.is_some(), "remove at {}", pos);
                if let (Some(a), Some(b)) = (a, b) {
                    prop_assert_eq!(a.to_bytes(), b.to_bytes(), "removed bytes at {}", pos);
                }
                // An unloaded chunk has nothing left to write back.
                self.model.dirty.remove(&(pos.x, pos.z));
            }
            Op::Drain => {
                let expected = self.model.drain(&self.sharded);
                prop_assert_eq!(self.sharded.drain_dirty(), expected, "mid-sequence deltas");
            }
            Op::Reshard { shards } => {
                self.sharded = std::mem::take(&mut self.sharded).with_shards(*shards);
                prop_assert_eq!(self.sharded.shard_count(), *shards);
                self.model.epochs = vec![0; *shards];
            }
        }
    }

    /// Every loaded chunk of the plain world with its lifetime modification
    /// count.
    fn chunk_modifications(&self) -> Vec<(ChunkPos, u64)> {
        self.plain
            .loaded_positions()
            .map(|pos| (pos, self.plain.chunk(pos).unwrap().modifications()))
            .collect()
    }

    /// The full end-state comparison: bytes, loaded sets, counters, dirty
    /// deltas, epochs.
    fn assert_converged(&mut self) {
        prop_assert_eq!(self.plain.loaded_chunks(), self.sharded.loaded_chunks());
        prop_assert_eq!(
            self.plain.total_modifications(),
            self.sharded.total_modifications()
        );
        prop_assert_eq!(self.plain.stateful_blocks(), self.sharded.stateful_blocks());

        // Loaded position sets are identical...
        let mut plain_positions: Vec<ChunkPos> = self.plain.loaded_positions().collect();
        let mut sharded_positions = self.sharded.loaded_positions();
        let key = |p: &ChunkPos| (p.x, p.z);
        plain_positions.sort_unstable_by_key(key);
        sharded_positions.sort_unstable_by_key(key);
        prop_assert_eq!(&plain_positions, &sharded_positions);

        // ...and every loaded chunk is byte-identical.
        for pos in plain_positions {
            let reference = self.plain.chunk(pos).expect("listed as loaded").to_bytes();
            let sharded = self.sharded.read_chunk(pos, |c| c.to_bytes());
            prop_assert_eq!(Some(&reference), sharded.as_ref(), "bytes at {}", pos);
        }

        // Epochs and the final drain match the model.
        for shard in 0..self.sharded.shard_count() {
            prop_assert_eq!(
                self.sharded.shard_epoch(shard),
                self.model.epochs[shard],
                "epoch of shard {}",
                shard
            );
        }
        let expected = self.model.drain(&self.sharded);
        prop_assert_eq!(self.sharded.drain_dirty(), expected, "final dirty deltas");
        // Draining is complete: a second drain is empty.
        prop_assert!(self.sharded.drain_dirty().is_empty());
    }
}

proptest! {
    /// The headline differential property: arbitrary operation sequences
    /// leave both worlds observationally identical, with dirty drains and
    /// epochs exactly as the model predicts.
    #[test]
    fn sharded_world_agrees_on_arbitrary_sequences(
        ops in prop::collection::vec(arb_op(), 1..60),
    ) {
        let mut duo = Duo::new();
        for op in &ops {
            duo.apply(op);
        }
        duo.assert_converged();
    }

    /// Write-back equivalence: after the same edits, the dirty deltas the
    /// persistence layer would drain name the edited chunks with the right
    /// epochs, and snapshotting those chunks yields the plain world's
    /// bytes.
    #[test]
    fn drained_deltas_snapshot_identically(
        writes in prop::collection::vec(
            ((-40i32..40, 1i32..80, -40i32..40), arb_block()),
            1..80,
        ),
    ) {
        let mut duo = Duo::new();
        let batch: Vec<(BlockPos, Block)> = writes
            .iter()
            .map(|((x, y, z), b)| (BlockPos::new(*x, *y, *z), *b))
            .collect();
        prop_assert_eq!(
            duo.plain.set_blocks(batch.clone()).unwrap(),
            duo.sharded.set_blocks(batch.clone()).unwrap()
        );
        for (pos, _) in &batch {
            duo.model.note(&duo.sharded, ChunkPos::from(*pos), 1);
        }
        let deltas = duo.sharded.drain_dirty();
        prop_assert_eq!(&deltas, &duo.model.drain(&duo.sharded));
        for delta in &deltas {
            for &pos in &delta.chunks {
                prop_assert_eq!(
                    duo.sharded.read_chunk(pos, |c| c.to_bytes()),
                    Some(duo.plain.chunk(pos).unwrap().to_bytes()),
                    "snapshot at {}",
                    pos
                );
            }
        }
    }

    /// Failing batches follow the sharded partial-application contract
    /// exactly: writes apply shard by shard in shard order, in input order
    /// within a shard, and stop at the first failing write. Replaying that
    /// order write by write on the plain world reproduces the final bytes,
    /// counters and dirty deltas.
    #[test]
    fn failing_batches_apply_whole_shards_in_order(
        writes in prop::collection::vec(
            ((-80i32..80, 1i32..80, -80i32..80), arb_block()),
            1..60,
        ),
    ) {
        let mut plain = World::flat(4);
        let sharded = ShardedWorld::flat(4);
        // Load only a partial grid so batches regularly hit unloaded
        // chunks and fail partway through.
        for cx in -2..2 {
            for cz in -2..2 {
                plain.ensure_chunk_at(ChunkPos::new(cx, cz));
                sharded.ensure_chunk_at(ChunkPos::new(cx, cz));
            }
        }
        let batch: Vec<(BlockPos, Block)> = writes
            .iter()
            .map(|((x, y, z), b)| (BlockPos::new(*x, *y, *z), *b))
            .collect();
        let mut shard_order = batch.clone();
        shard_order.sort_by_key(|(pos, _)| sharded.shard_of(ChunkPos::from(*pos)));
        let mut model = DirtyModel::new(sharded.shard_count());
        let mut replayed = Ok(0usize);
        for &(pos, block) in &shard_order {
            if let Err(e) = plain.set_block(pos, block) {
                replayed = Err(e);
                break;
            }
            model.note(&sharded, ChunkPos::from(pos), 1);
            replayed = replayed.map(|n| n + 1);
        }
        let result = sharded.set_blocks(batch);
        prop_assert_eq!(result.is_ok(), replayed.is_ok());
        if let (Ok(a), Ok(b)) = (&result, &replayed) {
            prop_assert_eq!(a, b, "written count");
        }
        prop_assert_eq!(sharded.total_modifications(), plain.total_modifications());
        prop_assert_eq!(sharded.drain_dirty(), model.drain(&sharded));
        for pos in plain.loaded_positions() {
            prop_assert_eq!(
                sharded.read_chunk(pos, |chunk| chunk.to_bytes()),
                Some(plain.chunk(pos).unwrap().to_bytes()),
                "bytes at {}",
                pos
            );
        }
    }

    /// Round-trip equivalence: converting the sharded world back to a plain
    /// `World` reproduces the plain world byte for byte.
    #[test]
    fn to_world_round_trips_identically(
        writes in prop::collection::vec(
            ((-30i32..30, 1i32..60, -30i32..30), arb_block()),
            1..50,
        ),
    ) {
        let mut duo = Duo::new();
        for ((x, y, z), block) in &writes {
            duo.apply(&Op::Set { x: *x, y: *y, z: *z, block: *block });
        }
        let round_trip = duo.sharded.to_world();
        prop_assert_eq!(round_trip.loaded_chunks(), duo.plain.loaded_chunks());
        for pos in duo.plain.loaded_positions() {
            prop_assert_eq!(
                &round_trip.chunk(pos).unwrap().to_bytes(),
                &duo.plain.chunk(pos).unwrap().to_bytes()
            );
        }
    }
}

/// A fixed schedule pinned as a plain `#[test]`, so a regression names the
/// failing position directly rather than a proptest seed.
#[test]
fn sharded_world_matches_plain_world() {
    let mut plain = World::flat(4);
    let sharded = ShardedWorld::flat(4);
    for cx in -2..2 {
        for cz in -2..2 {
            plain.ensure_chunk_at(ChunkPos::new(cx, cz));
            sharded.ensure_chunk_at(ChunkPos::new(cx, cz));
        }
    }
    for i in 0..500i32 {
        let pos = BlockPos::new((i * 7) % 32 - 16, (i % 60) + 1, (i * 13) % 32 - 16);
        let block = Block::ALL[(i as usize) % Block::ALL.len()];
        assert_eq!(
            plain.set_block(pos, block).is_ok(),
            sharded.set_block(pos, block).is_ok()
        );
    }
    assert_eq!(plain.total_modifications(), sharded.total_modifications());
    for pos in plain.loaded_positions() {
        assert_eq!(
            Some(plain.chunk(pos).unwrap().to_bytes()),
            sharded.read_chunk(pos, |c| c.to_bytes()),
            "bytes at {pos}"
        );
    }
}
