//! The tenant catalog: a directory of `phocus-pack` files plus one
//! memory-resident index.
//!
//! Haystack's core lesson is that *metadata lookups*, not data reads, kill
//! photo-store throughput — so the catalog keeps its entire index (tenant
//! name → pack path, content checksum, artifact paths) resident in memory
//! after one read of `catalog.idx`. Serving a tenant then costs exactly one
//! file read plus one checksummed [`par_core::unpack_instance_checked`]
//! bulk load; no directory walks, no text parsing, no representation
//! pipeline.
//!
//! # Directory layout
//!
//! ```text
//! <root>/catalog.idx      the index (format below)
//! <root>/pk00000.pack     one phocus-pack per tenant, named by entry index
//! <root>/pk00000.sol      optional solve artifact for that tenant
//! ```
//!
//! Pack files are named by entry index, not tenant name, so arbitrary
//! tenant names (slashes, unicode) never touch the filesystem namespace;
//! the name → file mapping lives only in the index.
//!
//! # Index format (`catalog.idx`)
//!
//! ```text
//! # phocus-catalog v1
//! tenant\t<name>\t<pack file>\t<fnv1a64 hex>\t<photos>\t<budget>\t<artifact file|->\t<artifact fnv1a64 hex|->
//! ```
//!
//! One line per tenant, sorted by tenant name (strictly ascending — the
//! builder rejects duplicates, and names containing a tab or a line break),
//! so lookups are a binary search over the resident entries and the index
//! bytes are a deterministic function of its contents.
//! [`CatalogBuilder::finish`] writes the index to a temporary file, syncs
//! it and renames it into place, so a crash leaves the old index or the new
//! one, never a torn one.
//!
//! Checksums are [`par_core::fnv1a64`] over the whole referenced file.
//! [`Catalog::load`] hands the indexed checksum to the pack reader, which
//! checks it in the same pass over the bytes that verifies every section
//! checksum: each byte is hashed once, and both checks run. A pack that is
//! not the indexed file is a [`PhocusError::Catalog`], which takes
//! precedence over anything the pack reader would report; a pack that
//! matches its index but is damaged inside is a
//! [`PhocusError::Pack`](crate::PhocusError). Either way it is a typed
//! error, never a wrong answer.

use crate::error::{PhocusError, Result};
use par_core::{fnv1a64, unpack_instance_checked, PackError, PackedInstance};
use std::io::Write;
use std::path::{Path, PathBuf};

/// File name of the catalog index inside the catalog directory.
pub const INDEX_FILE: &str = "catalog.idx";
/// Where [`CatalogBuilder::finish`] writes the index before renaming it
/// over [`INDEX_FILE`].
const INDEX_TMP: &str = "catalog.idx.tmp";
/// First line of a v1 index.
const HEADER: &str = "# phocus-catalog v1";

/// One tenant's resident metadata: where its pack (and optional solve
/// artifact) live and what bytes they must hash to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CatalogEntry {
    /// Tenant name (the universe name at build time).
    pub name: String,
    /// Pack file name, relative to the catalog root.
    pub pack: String,
    /// [`fnv1a64`] of the pack file's bytes.
    pub checksum: u64,
    /// Photo count, resident so schedulers (LPT) never open the pack.
    pub photos: u64,
    /// The budget the pack was represented under (bytes).
    pub budget: u64,
    /// Solve-artifact file name relative to the root, with its checksum,
    /// if one was recorded.
    pub artifact: Option<(String, u64)>,
}

/// A memory-resident catalog over a directory of `phocus-pack` files.
#[derive(Debug, Clone)]
pub struct Catalog {
    root: PathBuf,
    /// Sorted by `name`, strictly ascending.
    entries: Vec<CatalogEntry>,
}

fn io_err(path: &Path, e: &std::io::Error) -> PhocusError {
    PhocusError::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    }
}

fn index_err(path: &Path, line: usize, message: impl Into<String>) -> PhocusError {
    PhocusError::Catalog {
        entry: format!("{}:{line}", path.display()),
        message: message.into(),
    }
}

fn parse_hex64(s: &str) -> Option<u64> {
    u64::from_str_radix(s, 16).ok()
}

impl Catalog {
    /// Opens a catalog directory: reads and parses `catalog.idx` once; every
    /// later lookup and load uses the resident entries only.
    pub fn open(root: impl Into<PathBuf>) -> Result<Catalog> {
        let root = root.into();
        let index = root.join(INDEX_FILE);
        let text = std::fs::read_to_string(&index).map_err(|e| io_err(&index, &e))?;
        let mut lines = text.lines().enumerate();
        match lines.next() {
            Some((_, first)) if first.trim_end() == HEADER => {}
            _ => {
                return Err(index_err(&index, 1, format!("missing header `{HEADER}`")));
            }
        }
        let mut entries: Vec<CatalogEntry> = Vec::new();
        for (i, line) in lines {
            let lineno = i + 1;
            let line = line.trim_end();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut f = line.split('\t');
            if f.next() != Some("tenant") {
                return Err(index_err(&index, lineno, "expected a `tenant` record"));
            }
            let mut field = |what: &'static str| {
                f.next()
                    .ok_or_else(|| index_err(&index, lineno, format!("missing field: {what}")))
            };
            let name = field("name")?.to_string();
            let pack = field("pack file")?.to_string();
            let checksum = parse_hex64(field("pack checksum")?)
                .ok_or_else(|| index_err(&index, lineno, "bad pack checksum"))?;
            let photos = field("photos")?
                .parse::<u64>()
                .map_err(|_| index_err(&index, lineno, "bad photo count"))?;
            let budget = field("budget")?
                .parse::<u64>()
                .map_err(|_| index_err(&index, lineno, "bad budget"))?;
            let artifact = match (field("artifact file")?, field("artifact checksum")?) {
                ("-", "-") => None,
                ("-", _) | (_, "-") => {
                    return Err(index_err(&index, lineno, "half-present artifact record"));
                }
                (file, sum) => Some((
                    file.to_string(),
                    parse_hex64(sum)
                        .ok_or_else(|| index_err(&index, lineno, "bad artifact checksum"))?,
                )),
            };
            if let Some(prev) = entries.last() {
                if prev.name.as_str() >= name.as_str() {
                    return Err(index_err(
                        &index,
                        lineno,
                        "tenant names out of order (index must be sorted, unique)",
                    ));
                }
            }
            entries.push(CatalogEntry {
                name,
                pack,
                checksum,
                photos,
                budget,
                artifact,
            });
        }
        Ok(Catalog { root, entries })
    }

    /// The catalog directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// All entries, sorted by tenant name.
    pub fn entries(&self) -> &[CatalogEntry] {
        &self.entries
    }

    /// Looks up a tenant by name (binary search over the resident index).
    pub fn get(&self, name: &str) -> Option<&CatalogEntry> {
        self.entries
            .binary_search_by(|e| e.name.as_str().cmp(name))
            .ok()
            .map(|i| &self.entries[i])
    }

    /// Loads one tenant's instance from its pack: one file read, then one
    /// pass over the bytes that checks the whole-file checksum and every
    /// section checksum before the bulk load. Returns the reconstructed
    /// instance with its persisted shard labels.
    pub fn load(&self, entry: &CatalogEntry) -> Result<PackedInstance> {
        let path = self.root.join(&entry.pack);
        let bytes = std::fs::read(&path).map_err(|e| io_err(&path, &e))?;
        unpack_instance_checked(&bytes, entry.checksum).map_err(|e| match e {
            PackError::FileChecksum => PhocusError::Catalog {
                entry: entry.name.clone(),
                message: format!("pack {} does not match its indexed checksum", entry.pack),
            },
            e => PhocusError::Pack(e),
        })
    }
}

/// Builds a catalog directory: add packs (and optional solve artifacts)
/// tenant by tenant, then [`finish`](CatalogBuilder::finish) writes the
/// sorted index.
#[derive(Debug)]
pub struct CatalogBuilder {
    root: PathBuf,
    entries: Vec<CatalogEntry>,
}

impl CatalogBuilder {
    /// Creates (or reuses) the catalog directory.
    pub fn create(root: impl Into<PathBuf>) -> Result<CatalogBuilder> {
        let root = root.into();
        std::fs::create_dir_all(&root).map_err(|e| io_err(&root, &e))?;
        Ok(CatalogBuilder {
            root,
            entries: Vec::new(),
        })
    }

    /// Writes `bytes` (a `phocus-pack` image from
    /// [`par_core::pack_instance`]) as the next pack file and records its
    /// entry. `photos` and `budget` become resident metadata.
    ///
    /// A name containing a tab, a carriage return or a line feed is
    /// rejected: the index is tab-separated, one line per tenant, so such a
    /// name would write an index that [`Catalog::open`] cannot read back.
    pub fn add_pack(&mut self, name: &str, bytes: &[u8], photos: u64, budget: u64) -> Result<()> {
        if name.contains(['\t', '\n', '\r']) {
            return Err(PhocusError::Catalog {
                entry: name.escape_debug().to_string(),
                message: "tenant name contains a tab or line break".into(),
            });
        }
        let file = format!("pk{:05}.pack", self.entries.len());
        let path = self.root.join(&file);
        std::fs::write(&path, bytes).map_err(|e| io_err(&path, &e))?;
        self.entries.push(CatalogEntry {
            name: name.to_string(),
            pack: file,
            checksum: fnv1a64(bytes),
            photos,
            budget,
            artifact: None,
        });
        Ok(())
    }

    /// Attaches a solve artifact (arbitrary text, e.g. the selected photo
    /// list) to the most recently added pack.
    pub fn add_artifact(&mut self, text: &str) -> Result<()> {
        let i = self.entries.len().checked_sub(1).ok_or_else(|| PhocusError::Catalog {
            entry: self.root.display().to_string(),
            message: "add_artifact called before any add_pack".into(),
        })?;
        let file = format!("pk{i:05}.sol");
        let path = self.root.join(&file);
        std::fs::write(&path, text).map_err(|e| io_err(&path, &e))?;
        self.entries[i].artifact = Some((file, fnv1a64(text.as_bytes())));
        Ok(())
    }

    /// Sorts the entries by tenant name, rejects duplicates, writes
    /// `catalog.idx`, and returns the resident catalog.
    ///
    /// The index goes to `catalog.idx.tmp` first, is synced to disk, and is
    /// then renamed over `catalog.idx` (and the directory synced), so a
    /// crash at any point leaves either the previous index or the complete
    /// new one.
    pub fn finish(mut self) -> Result<Catalog> {
        self.entries.sort_by(|a, b| a.name.cmp(&b.name));
        for w in self.entries.windows(2) {
            if w[0].name == w[1].name {
                return Err(PhocusError::Catalog {
                    entry: w[0].name.clone(),
                    message: "duplicate tenant name".into(),
                });
            }
        }
        let mut text = String::from(HEADER);
        text.push('\n');
        for e in &self.entries {
            let (afile, asum) = match &e.artifact {
                Some((f, s)) => (f.as_str(), format!("{s:016x}")),
                None => ("-", "-".to_string()),
            };
            text.push_str(&format!(
                "tenant\t{}\t{}\t{:016x}\t{}\t{}\t{}\t{}\n",
                e.name, e.pack, e.checksum, e.photos, e.budget, afile, asum
            ));
        }
        let tmp = self.root.join(INDEX_TMP);
        let write = || -> std::io::Result<()> {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(text.as_bytes())?;
            f.sync_all()
        };
        write().map_err(|e| io_err(&tmp, &e))?;
        let index = self.root.join(INDEX_FILE);
        std::fs::rename(&tmp, &index).map_err(|e| io_err(&index, &e))?;
        // The rename is durable only once the directory entry is on disk.
        #[cfg(unix)]
        std::fs::File::open(&self.root)
            .and_then(|dir| dir.sync_all())
            .map_err(|e| io_err(&self.root, &e))?;
        Ok(Catalog {
            root: self.root,
            entries: self.entries,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use par_core::fixtures::{figure1_instance, random_instance, RandomInstanceConfig, MB};
    use par_core::pack_instance;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("phocus-catalog-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn build_open_load_round_trip() {
        let dir = tmpdir("roundtrip");
        let inst = figure1_instance(4 * MB);
        let bytes = pack_instance(&inst).expect("packable");
        let mut b = CatalogBuilder::create(&dir).unwrap();
        b.add_pack("zeta", &bytes, inst.num_photos() as u64, inst.budget()).unwrap();
        b.add_artifact("selected\t3\n").unwrap();
        b.add_pack("alpha", &bytes, inst.num_photos() as u64, inst.budget()).unwrap();
        let built = b.finish().unwrap();
        assert_eq!(built.entries().len(), 2);
        // Sorted by name regardless of add order.
        assert_eq!(built.entries()[0].name, "alpha");

        let opened = Catalog::open(&dir).unwrap();
        assert_eq!(opened.entries(), built.entries());
        let entry = opened.get("zeta").unwrap();
        assert!(entry.artifact.is_some());
        let loaded = opened.load(entry).unwrap();
        assert_eq!(loaded.instance.num_photos(), inst.num_photos());
        assert_eq!(loaded.instance.budget(), inst.budget());
        assert!(opened.get("nope").is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_pack_fails_checksum() {
        let dir = tmpdir("stale");
        let inst = figure1_instance(4 * MB);
        let mut b = CatalogBuilder::create(&dir).unwrap();
        b.add_pack("t", &pack_instance(&inst).expect("packable"), 6, inst.budget()).unwrap();
        let cat = b.finish().unwrap();
        // Overwrite the pack behind the index's back.
        std::fs::write(dir.join(&cat.entries()[0].pack), b"garbage").unwrap();
        let err = cat.load(cat.get("t").unwrap()).unwrap_err();
        assert!(matches!(err, PhocusError::Catalog { .. }), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn pack_swapped_for_another_tenants_is_a_catalog_error() {
        // Both packs are valid images, so only the whole-file checksum can
        // tell that `a`'s file now holds `b`'s instance.
        let dir = tmpdir("swapped");
        let a = figure1_instance(4 * MB);
        let b_inst = random_instance(3, &RandomInstanceConfig::default());
        let mut b = CatalogBuilder::create(&dir).unwrap();
        b.add_pack("a", &pack_instance(&a).unwrap(), 7, a.budget())
            .unwrap();
        b.add_pack("b", &pack_instance(&b_inst).unwrap(), 40, b_inst.budget())
            .unwrap();
        let cat = b.finish().unwrap();
        std::fs::copy(
            dir.join(&cat.entries()[1].pack),
            dir.join(&cat.entries()[0].pack),
        )
        .unwrap();
        let err = cat.load(cat.get("a").unwrap()).unwrap_err();
        assert!(matches!(err, PhocusError::Catalog { .. }), "{err}");
        assert!(
            err.to_string()
                .contains("does not match its indexed checksum"),
            "{err}"
        );
        assert!(cat.load(cat.get("b").unwrap()).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn indexed_pack_with_a_flipped_payload_byte_fails_its_section_checksum() {
        // The index is built over the damaged bytes, so the whole-file
        // check passes and the section check must catch the flip.
        let dir = tmpdir("flipped");
        let inst = figure1_instance(4 * MB);
        let mut bytes = pack_instance(&inst).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        let mut b = CatalogBuilder::create(&dir).unwrap();
        b.add_pack("t", &bytes, 7, inst.budget()).unwrap();
        let cat = b.finish().unwrap();
        let err = cat.load(cat.get("t").unwrap()).unwrap_err();
        assert!(
            matches!(err, PhocusError::Pack(PackError::Checksum { .. })),
            "{err:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn names_with_tabs_or_line_breaks_are_rejected() {
        let dir = tmpdir("badname");
        let bytes = pack_instance(&figure1_instance(4 * MB)).unwrap();
        let mut b = CatalogBuilder::create(&dir).unwrap();
        for bad in ["a\tb", "a\nb", "a\rb"] {
            let err = b.add_pack(bad, &bytes, 7, 1).unwrap_err();
            assert!(matches!(err, PhocusError::Catalog { .. }), "{err}");
        }
        // Nothing was recorded, so the index stays readable.
        b.add_pack("ok", &bytes, 7, 1).unwrap();
        b.finish().unwrap();
        assert_eq!(Catalog::open(&dir).unwrap().entries().len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn names_with_spaces_slashes_and_unicode_round_trip() {
        let dir = tmpdir("names");
        let bytes = pack_instance(&figure1_instance(4 * MB)).unwrap();
        let names = ["two words", "a/b\\c", "fotoğraf arşivi", "写真 📷"];
        let mut b = CatalogBuilder::create(&dir).unwrap();
        for name in names {
            b.add_pack(name, &bytes, 7, 1).unwrap();
        }
        let built = b.finish().unwrap();
        let opened = Catalog::open(&dir).unwrap();
        assert_eq!(opened.entries(), built.entries());
        for name in names {
            assert!(opened.load(opened.get(name).unwrap()).is_ok(), "{name}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn finishing_twice_replaces_the_index_and_leaves_no_temp_file() {
        let dir = tmpdir("twice");
        let bytes = pack_instance(&figure1_instance(4 * MB)).unwrap();
        let mut b = CatalogBuilder::create(&dir).unwrap();
        b.add_pack("first", &bytes, 7, 1).unwrap();
        b.finish().unwrap();
        let mut b = CatalogBuilder::create(&dir).unwrap();
        b.add_pack("second", &bytes, 7, 1).unwrap();
        b.add_pack("third", &bytes, 7, 1).unwrap();
        b.finish().unwrap();
        assert!(!dir.join(INDEX_TMP).exists());
        let opened = Catalog::open(&dir).unwrap();
        let names: Vec<&str> = opened.entries().iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["second", "third"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn duplicate_tenants_rejected() {
        let dir = tmpdir("dup");
        let inst = figure1_instance(4 * MB);
        let bytes = pack_instance(&inst).expect("packable");
        let mut b = CatalogBuilder::create(&dir).unwrap();
        b.add_pack("same", &bytes, 6, 1).unwrap();
        b.add_pack("same", &bytes, 6, 1).unwrap();
        assert!(b.finish().is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn malformed_index_is_typed() {
        let dir = tmpdir("malformed");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(INDEX_FILE), "# wrong header\n").unwrap();
        assert!(matches!(
            Catalog::open(&dir).unwrap_err(),
            PhocusError::Catalog { .. }
        ));
        std::fs::write(
            dir.join(INDEX_FILE),
            "# phocus-catalog v1\ntenant\tx\tp.pack\tzz\t1\t1\t-\t-\n",
        )
        .unwrap();
        assert!(matches!(
            Catalog::open(&dir).unwrap_err(),
            PhocusError::Catalog { .. }
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
