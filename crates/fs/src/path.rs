//! Lexical path manipulation.
//!
//! Browsix paths are always Unix-style, rooted at `/`, and resolved inside the
//! kernel (there is no host file system underneath).  These helpers perform
//! the purely lexical parts: normalisation, joining relative paths onto a
//! working directory, and splitting into components.

/// Normalises `path` lexically: collapses `//`, resolves `.` and `..`, and
/// guarantees the result is absolute (relative inputs are interpreted against
/// `/`).  `..` at the root stays at the root, as in POSIX.
///
/// ```
/// use browsix_fs::path::normalize;
/// assert_eq!(normalize("/usr//share/./fonts/../doc"), "/usr/share/doc");
/// assert_eq!(normalize("a/b"), "/a/b");
/// assert_eq!(normalize("/../.."), "/");
/// ```
pub fn normalize(path: &str) -> String {
    let mut parts: Vec<&str> = Vec::new();
    for component in path.split('/') {
        match component {
            "" | "." => {}
            ".." => {
                parts.pop();
            }
            other => parts.push(other),
        }
    }
    if parts.is_empty() {
        "/".to_owned()
    } else {
        format!("/{}", parts.join("/"))
    }
}

/// Joins `path` onto `base` (the current working directory) and normalises the
/// result.  Absolute paths ignore `base`, exactly like `chdir`-relative
/// resolution in a kernel.
///
/// ```
/// use browsix_fs::path::resolve;
/// assert_eq!(resolve("/home/user", "docs/main.tex"), "/home/user/docs/main.tex");
/// assert_eq!(resolve("/home/user", "/etc/passwd"), "/etc/passwd");
/// assert_eq!(resolve("/home/user", ".."), "/home");
/// ```
pub fn resolve(base: &str, path: &str) -> String {
    if path.starts_with('/') {
        normalize(path)
    } else {
        normalize(&format!("{base}/{path}"))
    }
}

/// Splits a normalised path into its components.  The root maps to an empty
/// component list.
pub fn components(path: &str) -> Vec<String> {
    let normalized = normalize(path);
    normalized
        .split('/')
        .filter(|c| !c.is_empty())
        .map(|c| c.to_owned())
        .collect()
}

/// The parent directory of `path` (the root is its own parent).
pub fn dirname(path: &str) -> String {
    let normalized = normalize(path);
    match normalized.rfind('/') {
        Some(0) => "/".to_owned(),
        Some(idx) => normalized[..idx].to_owned(),
        None => "/".to_owned(),
    }
}

/// The final component of `path`; the root's basename is `"/"`.
pub fn basename(path: &str) -> String {
    let normalized = normalize(path);
    if normalized == "/" {
        return "/".to_owned();
    }
    normalized
        .rsplit('/')
        .next()
        .map(|s| s.to_owned())
        .unwrap_or_else(|| "/".to_owned())
}

/// Whether `path` is `prefix` itself or lies underneath it.  Both sides are
/// normalised first.
pub fn starts_with(path: &str, prefix: &str) -> bool {
    starts_with_normalized(&normalize(path), &normalize(prefix))
}

/// [`starts_with`] for two paths that are already normalised: a comparison,
/// no allocation.
pub fn starts_with_normalized(path: &str, prefix: &str) -> bool {
    strip_prefix_normalized(path, prefix).is_some()
}

/// Rewrites `path` (which must be equal to or under `prefix`) so it becomes
/// relative to `prefix`, returning an absolute path within that subtree.
/// Returns `None` if `path` is not under `prefix`.
pub fn strip_prefix(path: &str, prefix: &str) -> Option<String> {
    strip_prefix_normalized(&normalize(path), &normalize(prefix)).map(str::to_owned)
}

/// [`strip_prefix`] for two paths that are already normalised: the answer
/// is a suffix of `path` (or `"/"`), borrowed rather than built.
pub fn strip_prefix_normalized<'a>(path: &'a str, prefix: &str) -> Option<&'a str> {
    if prefix == "/" {
        return Some(path);
    }
    match path.strip_prefix(prefix)? {
        "" => Some("/"),
        rest if rest.starts_with('/') => Some(rest),
        _ => None,
    }
}

/// The file extension of `path` (without the dot), if any.
pub fn extension(path: &str) -> Option<String> {
    let base = basename(path);
    let idx = base.rfind('.')?;
    if idx == 0 || idx + 1 == base.len() {
        return None;
    }
    Some(base[idx + 1..].to_owned())
}

/// A simple glob matcher supporting `*` (any run of non-separator characters)
/// and `?` (any single non-separator character), as used by the shell's
/// pathname expansion.
pub fn glob_match(pattern: &str, name: &str) -> bool {
    fn inner(pattern: &[u8], name: &[u8]) -> bool {
        match (pattern.first(), name.first()) {
            (None, None) => true,
            (Some(b'*'), _) => {
                // '*' matches zero or more characters (never '/').
                if inner(&pattern[1..], name) {
                    return true;
                }
                match name.first() {
                    Some(&c) if c != b'/' => inner(pattern, &name[1..]),
                    _ => false,
                }
            }
            (Some(b'?'), Some(&c)) if c != b'/' => inner(&pattern[1..], &name[1..]),
            (Some(&p), Some(&c)) if p == c => inner(&pattern[1..], &name[1..]),
            _ => false,
        }
    }
    inner(pattern.as_bytes(), name.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_handles_dots_and_slashes() {
        assert_eq!(normalize("/"), "/");
        assert_eq!(normalize(""), "/");
        assert_eq!(normalize("//usr///bin//"), "/usr/bin");
        assert_eq!(normalize("/a/./b/./c"), "/a/b/c");
        assert_eq!(normalize("/a/b/../c"), "/a/c");
        assert_eq!(normalize("/a/b/c/../../.."), "/");
        assert_eq!(normalize("/../../x"), "/x");
        assert_eq!(normalize("relative/path"), "/relative/path");
    }

    #[test]
    fn resolve_respects_cwd_and_absolute_paths() {
        assert_eq!(resolve("/home", "file.txt"), "/home/file.txt");
        assert_eq!(resolve("/home", "./file.txt"), "/home/file.txt");
        assert_eq!(resolve("/home/user", "../etc"), "/home/etc");
        assert_eq!(resolve("/home", "/absolute"), "/absolute");
        assert_eq!(resolve("/", "bin"), "/bin");
    }

    #[test]
    fn components_dirname_basename() {
        assert_eq!(components("/usr/bin/ls"), vec!["usr", "bin", "ls"]);
        assert!(components("/").is_empty());
        assert_eq!(dirname("/usr/bin/ls"), "/usr/bin");
        assert_eq!(dirname("/usr"), "/");
        assert_eq!(dirname("/"), "/");
        assert_eq!(basename("/usr/bin/ls"), "ls");
        assert_eq!(basename("/"), "/");
    }

    #[test]
    fn prefix_relations() {
        assert!(starts_with("/usr/bin/ls", "/usr"));
        assert!(starts_with("/usr", "/usr"));
        assert!(starts_with("/anything", "/"));
        assert!(!starts_with("/usr2/bin", "/usr"));
        assert_eq!(strip_prefix("/usr/bin/ls", "/usr"), Some("/bin/ls".into()));
        assert_eq!(strip_prefix("/usr", "/usr"), Some("/".into()));
        assert_eq!(strip_prefix("/var/log", "/usr"), None);
        assert_eq!(strip_prefix("/var/log", "/"), Some("/var/log".into()));
    }

    #[test]
    fn normalized_variants_agree_with_the_normalizing_ones() {
        let paths = ["/", "/usr", "/usr/bin", "/usr/bin/ls", "/usr2/bin", "/u", "/var/log"];
        for path in paths {
            for prefix in paths {
                assert_eq!(
                    starts_with_normalized(path, prefix),
                    starts_with(path, prefix),
                    "{path} under {prefix}"
                );
                assert_eq!(
                    strip_prefix_normalized(path, prefix).map(str::to_owned),
                    strip_prefix(path, prefix),
                    "{path} minus {prefix}"
                );
            }
        }
    }

    #[test]
    fn extensions() {
        assert_eq!(extension("/a/b/main.tex"), Some("tex".into()));
        assert_eq!(extension("/a/b/Makefile"), None);
        assert_eq!(extension("/a/b/.hidden"), None);
        assert_eq!(extension("/a/b/archive.tar.gz"), Some("gz".into()));
        assert_eq!(extension("/a/b/trailing."), None);
    }

    #[test]
    fn globbing() {
        assert!(glob_match("*.txt", "notes.txt"));
        assert!(!glob_match("*.txt", "notes.text"));
        assert!(glob_match("ma?n.tex", "main.tex"));
        assert!(glob_match("*", "anything"));
        assert!(!glob_match("*", "dir/file"));
        assert!(glob_match("a*b*c", "axxbyyc"));
        assert!(!glob_match("a*b*c", "axxbyy"));
        assert!(glob_match("", ""));
    }

    #[test]
    fn normalize_is_idempotent_on_samples() {
        for sample in ["/a/../b/./c//", "x/y/z", "/", "///", "/..", "a/.."] {
            let once = normalize(sample);
            assert_eq!(normalize(&once), once);
        }
    }
}
