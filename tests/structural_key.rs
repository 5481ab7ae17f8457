//! The in-process structural key of a program image (`core::FoldHasher`
//! over `#[derive(Hash)]`): it fronts the listing-hash memo behind
//! `ProgramId::of` and buckets the `SUBMIT` encoder's program table, so a
//! collision between two different images would hand one image the other's
//! `ProgramId`. These checks run it over the images the figures and the
//! corpus actually compile: a clone keys equal, and two images share a key
//! only if they are equal. (Some of those images are equal: a corpus pair
//! can compile to one image, and so can two modes of one Olden port.)

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, BuildHasherDefault};

use hardbound::compiler::Mode;
use hardbound::core::FoldHasher;
use hardbound::isa::Program;
use hardbound::runtime::compile;
use hardbound::violations::corpus;
use hardbound::workloads::{self, Scale};

fn key(program: &Program) -> u64 {
    BuildHasherDefault::<FoldHasher>::default().hash_one(program)
}

/// Asserts the key is clone-stable over `images` and that it tells apart
/// exactly the images their listings tell apart (a listing round-trips
/// through `isa::parse_program`, so it is an independent identity).
fn assert_keys_separate(images: &[(String, Program)]) {
    let mut by_key: HashMap<u64, &(String, Program)> = HashMap::new();
    let mut listings = HashSet::new();
    for image in images {
        let (name, program) = image;
        let k = key(program);
        assert_eq!(k, key(&program.clone()), "{name}: a clone keys differently");
        if let Some((other, seen)) = by_key.insert(k, image) {
            assert!(
                seen == program,
                "{name} and {other}: different images share key {k:#x}"
            );
        }
        listings.insert(program.disassemble());
    }
    assert_eq!(
        by_key.len(),
        listings.len(),
        "distinct keys vs distinct listings"
    );
}

#[test]
fn corpus_images_have_distinct_keys() {
    let cases = corpus();
    let mut images = Vec::new();
    for case in &cases {
        for (side, src) in [("bad", &case.bad_source), ("ok", &case.ok_source)] {
            let program = compile(src, Mode::HardBound).expect("corpus compiles");
            images.push((format!("{} {side}", case.id), program));
        }
    }
    assert_eq!(images.len(), 576);
    assert_keys_separate(&images);
}

#[test]
fn olden_smoke_images_have_distinct_keys() {
    let fleet = workloads::all(Scale::Smoke);
    assert_eq!(fleet.len(), 9);
    let mut images = Vec::new();
    for w in &fleet {
        for mode in Mode::ALL {
            let program = compile(&w.source, mode).expect("Olden port compiles");
            images.push((format!("{} ({mode})", w.name), program));
        }
    }
    assert_keys_separate(&images);
}
