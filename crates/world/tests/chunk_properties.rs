//! Property-based tests for the chunk and world data structures.

use proptest::prelude::*;
use servo_types::consts::{CHUNK_HEIGHT, CHUNK_SIZE};
use servo_types::{BlockPos, ChunkPos};
use servo_world::chunk::BLOCKS_PER_CHUNK;
use servo_world::{Block, Chunk, World};

fn arb_block() -> impl Strategy<Value = Block> {
    prop::sample::select(Block::ALL.to_vec())
}

fn arb_local_coord() -> impl Strategy<Value = (i32, i32, i32)> {
    (0..CHUNK_SIZE, 0..CHUNK_HEIGHT, 0..CHUNK_SIZE)
}

/// One write through the chunk's public editing surface.
#[derive(Debug, Clone)]
enum Edit {
    Set((i32, i32, i32), Block),
    Fill((i32, i32, i32), (i32, i32, i32), Block),
    Layer(i32, Block),
}

fn arb_edit() -> impl Strategy<Value = Edit> {
    prop_oneof![
        6 => (arb_local_coord(), arb_block()).prop_map(|(at, block)| Edit::Set(at, block)),
        2 => (arb_local_coord(), arb_local_coord(), arb_block()).prop_map(|(a, b, block)| {
            let lo = (a.0.min(b.0), a.1.min(b.1), a.2.min(b.2));
            let hi = (a.0.max(b.0), a.1.max(b.1), a.2.max(b.2));
            Edit::Fill(lo, hi, block)
        }),
        1 => (0..CHUNK_HEIGHT, arb_block()).prop_map(|(y, block)| Edit::Layer(y, block)),
    ]
}

/// The chunk's maximal runs, recounted block by block through the public
/// reader in storage order (x, then z, then y).
fn naive_runs(chunk: &Chunk) -> Vec<(u32, u16)> {
    let mut runs: Vec<(u32, u16)> = Vec::new();
    for x in 0..CHUNK_SIZE {
        for z in 0..CHUNK_SIZE {
            for y in 0..CHUNK_HEIGHT {
                let id = chunk.local(x, y, z).unwrap().id();
                match runs.last_mut() {
                    Some((count, last)) if *last == id => *count += 1,
                    _ => runs.push((1, id)),
                }
            }
        }
    }
    runs
}

/// The documented [`Chunk::to_bytes`] layout of the given runs, whether or
/// not they are maximal.
fn encode(pos: ChunkPos, runs: &[(u32, u16)]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&pos.x.to_le_bytes());
    out.extend_from_slice(&pos.z.to_le_bytes());
    out.extend_from_slice(&(runs.len() as u32).to_le_bytes());
    for &(count, id) in runs {
        out.extend_from_slice(&count.to_le_bytes());
        out.extend_from_slice(&id.to_le_bytes());
    }
    out
}

/// Grid of run boundaries for hand-built encodings.
const CUT_STEPS: usize = 64;

/// Merges adjacent equal-id runs and drops empty ones.
fn maximal(runs: &[(u32, u16)]) -> Vec<(u32, u16)> {
    let mut merged: Vec<(u32, u16)> = Vec::new();
    for &(count, id) in runs.iter().filter(|&&(count, _)| count > 0) {
        match merged.last_mut() {
            Some((total, last)) if *last == id => *total += count,
            _ => merged.push((count, id)),
        }
    }
    merged
}

proptest! {
    /// Any sequence of in-range writes is readable back, and serialization
    /// round-trips the exact chunk contents.
    #[test]
    fn chunk_serialization_round_trips(
        writes in prop::collection::vec((arb_local_coord(), arb_block()), 0..80),
        cx in -1000i32..1000,
        cz in -1000i32..1000,
    ) {
        let mut chunk = Chunk::empty(ChunkPos::new(cx, cz));
        for ((x, y, z), block) in &writes {
            chunk.set_local(*x, *y, *z, *block).unwrap();
        }
        let restored = Chunk::from_bytes(&chunk.to_bytes()).unwrap();
        prop_assert_eq!(restored.pos(), chunk.pos());
        for ((x, y, z), _) in &writes {
            prop_assert_eq!(restored.local(*x, *y, *z), chunk.local(*x, *y, *z));
        }
        prop_assert_eq!(restored.non_air_blocks(), chunk.non_air_blocks());
        prop_assert_eq!(restored.to_bytes(), chunk.to_bytes());
    }

    /// Over any edit sequence the size is the encoded length, and the
    /// encoding is the documented layout of exactly the maximal runs.
    #[test]
    fn serialized_size_is_the_encoded_length_of_the_maximal_runs(
        edits in prop::collection::vec(arb_edit(), 0..60),
        cx in -1000i32..1000,
        cz in -1000i32..1000,
    ) {
        let pos = ChunkPos::new(cx, cz);
        let mut chunk = Chunk::empty(pos);
        for edit in &edits {
            match *edit {
                Edit::Set((x, y, z), block) => chunk.set_local(x, y, z, block).unwrap(),
                Edit::Fill(lo, hi, block) => {
                    chunk.fill_box(lo, hi, block).unwrap();
                }
                Edit::Layer(y, block) => chunk.fill_layer(y, block).unwrap(),
            }
        }
        let bytes = chunk.to_bytes();
        let runs = naive_runs(&chunk);
        prop_assert_eq!(chunk.serialized_size(), bytes.len());
        prop_assert_eq!(u32::from_le_bytes(bytes[8..12].try_into().unwrap()), runs.len() as u32);
        prop_assert_eq!(bytes, encode(pos, &runs));
    }

    /// Decoding accepts runs that are not maximal (adjacent equal ids,
    /// empty runs); the decoded chunk is priced as its maximal re-encoding.
    #[test]
    fn non_maximal_encodings_are_priced_as_their_reencoding(
        cuts in prop::collection::vec((0..CUT_STEPS + 1, 0usize..3), 0..40),
    ) {
        // Three ids make adjacent equal runs common; cuts on a coarse grid
        // often coincide, which makes empty runs.
        let ids = [Block::Air.id(), Block::Stone.id(), Block::Wire.id()];
        let mut cuts: Vec<(usize, usize)> = cuts
            .into_iter()
            .map(|(step, which)| (step * BLOCKS_PER_CHUNK / CUT_STEPS, which))
            .collect();
        cuts.sort();
        let mut runs = Vec::new();
        let mut at = 0;
        for (cut, which) in cuts {
            runs.push(((cut - at) as u32, ids[which]));
            at = cut;
        }
        runs.push(((BLOCKS_PER_CHUNK - at) as u32, Block::Air.id()));
        let pos = ChunkPos::new(-3, 5);
        let chunk = Chunk::from_bytes(&encode(pos, &runs)).unwrap();
        let merged = maximal(&runs);
        prop_assert_eq!(chunk.serialized_size(), chunk.to_bytes().len());
        prop_assert_eq!(chunk.serialized_size(), 12 + 6 * merged.len());
        prop_assert_eq!(chunk.to_bytes(), encode(pos, &merged));
    }

    /// The last write to a position wins, and counts are consistent.
    #[test]
    fn last_write_wins(
        coord in arb_local_coord(),
        blocks in prop::collection::vec(arb_block(), 1..12),
    ) {
        let mut chunk = Chunk::empty(ChunkPos::ORIGIN);
        for b in &blocks {
            chunk.set_local(coord.0, coord.1, coord.2, *b).unwrap();
        }
        prop_assert_eq!(chunk.local(coord.0, coord.1, coord.2), Some(*blocks.last().unwrap()));
        let expected = if blocks.last().unwrap().is_air() { 0 } else { 1 };
        prop_assert_eq!(chunk.non_air_blocks(), expected);
    }

    /// World-space block addressing round-trips across arbitrary coordinates
    /// (including negatives) once the containing chunk is loaded.
    #[test]
    fn world_block_round_trip(
        x in -10_000i32..10_000,
        y in 0i32..CHUNK_HEIGHT,
        z in -10_000i32..10_000,
        block in arb_block(),
    ) {
        let mut world = World::new();
        let pos = BlockPos::new(x, y, z);
        world.ensure_chunk_at(ChunkPos::from(pos));
        world.set_block(pos, block).unwrap();
        prop_assert_eq!(world.block(pos), Some(block));
        // The write landed in exactly one chunk.
        prop_assert_eq!(world.loaded_chunks(), 1);
    }

    /// Truncating serialized data never panics: it either fails cleanly or
    /// (for the empty tail) still describes a valid chunk.
    #[test]
    fn truncated_chunk_data_is_rejected_cleanly(cut in 0usize..1000) {
        let mut chunk = Chunk::empty(ChunkPos::new(1, 2));
        chunk.fill_layer(3, Block::Stone).unwrap();
        let bytes = chunk.to_bytes();
        let cut = cut.min(bytes.len().saturating_sub(1));
        let _ = Chunk::from_bytes(&bytes[..cut]);
    }

    /// Chunk-space conversion is consistent with the chunk's block range.
    #[test]
    fn chunk_pos_contains_its_blocks(x in -100_000i32..100_000, z in -100_000i32..100_000) {
        let pos = BlockPos::new(x, 10, z);
        let chunk = ChunkPos::from(pos);
        let min = chunk.min_block();
        prop_assert!(x >= min.x && x < min.x + CHUNK_SIZE);
        prop_assert!(z >= min.z && z < min.z + CHUNK_SIZE);
    }
}
