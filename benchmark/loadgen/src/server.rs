//! The programs under test, as child processes: `urbane-serve` and the
//! `urbane-cli` commands that build a cold store. Nothing here links the
//! workspace; the binaries are found in `--bin-dir`.

use crate::affinity::CpuSet;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

pub struct Binaries {
    pub serve: PathBuf,
    pub cli: PathBuf,
}

impl Binaries {
    pub fn in_dir(dir: &Path) -> Result<Binaries, String> {
        let find = |name: &str| {
            let path = dir.join(name);
            if path.is_file() {
                Ok(path)
            } else {
                Err(format!(
                    "{} not found; build the release binaries first",
                    path.display()
                ))
            }
        };
        Ok(Binaries {
            serve: find("urbane-serve")?,
            cli: find("urbane-cli")?,
        })
    }
}

/// A running `urbane-serve`. Dropping it kills the process and waits for
/// it, so no run leaves a server behind, whatever path it exits by.
pub struct Server {
    child: Child,
    pub addr: SocketAddr,
}

/// Only these are given to the gated server, so every other setting stays
/// at the program's default.
const DATA_SEED: &str = "1";
const WORKERS: &str = "2";

impl Server {
    /// Spawn the server and block until it prints its "listening" line.
    pub fn spawn(
        serve: &Path,
        rows: usize,
        store_dir: Option<&Path>,
        extra_args: &[String],
        cpus: Option<CpuSet>,
    ) -> Result<Server, String> {
        let mut cmd = Command::new(serve);
        cmd.args([
            "--port",
            "0",
            "--workers",
            WORKERS,
            "--seed",
            DATA_SEED,
            "--rows",
        ])
        .arg(rows.to_string());
        if let Some(dir) = store_dir {
            cmd.arg("--store-dir").arg(dir);
        }
        cmd.args(extra_args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        if let Some(cpus) = cpus {
            // SAFETY: the closure runs in the forked child before `exec`;
            // `pin_current` makes one system call on a value it owns, takes
            // no lock and allocates nothing.
            unsafe {
                cmd.pre_exec(move || cpus.pin_current());
            }
        }
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", serve.display()))?;
        let stdout = child.stdout.take().expect("stdout was piped");
        let mut line = String::new();
        let listening = match BufReader::new(stdout).read_line(&mut line) {
            Ok(n) if n > 0 => line
                .trim()
                .strip_prefix("urbane-serve listening on http://")
                .and_then(|addr| addr.parse::<SocketAddr>().ok()),
            _ => None,
        };
        match listening {
            Some(addr) => Ok(Server { child, addr }),
            None => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!(
                    "urbane-serve did not report a listening address (printed {line:?})"
                ))
            }
        }
    }

    /// Peak resident set of the server so far (`VmHWM`), in MB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        parse_vm_hwm_kb(&status)
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| format!("{path}: no VmHWM line"))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn parse_vm_hwm_kb(status: &str) -> Option<f64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse().ok())
}

/// Build `<dir>/trips.ubs` with `urbane-cli generate` + `build-store`,
/// replacing whatever is there. Returns the store's size in bytes.
pub fn build_store(cli: &Path, dir: &Path, rows: usize) -> Result<u64, String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let table = dir.join("trips.upt");
    let store = dir.join("trips.ubs");
    let run = |args: &[&std::ffi::OsStr]| -> Result<(), String> {
        let out = Command::new(cli)
            .args(args)
            .stdin(Stdio::null())
            .output()
            .map_err(|e| format!("running {}: {e}", cli.display()))?;
        if out.status.success() {
            Ok(())
        } else {
            Err(format!(
                "urbane-cli {args:?} failed: {}",
                String::from_utf8_lossy(&out.stderr).trim()
            ))
        }
    };
    let rows = rows.to_string();
    run(&[
        "generate".as_ref(),
        "--rows".as_ref(),
        rows.as_ref(),
        "--seed".as_ref(),
        DATA_SEED.as_ref(),
        "--out".as_ref(),
        table.as_os_str(),
    ])?;
    run(&[
        "build-store".as_ref(),
        "--data".as_ref(),
        table.as_os_str(),
        "--out".as_ref(),
        store.as_os_str(),
    ])?;
    // The server registers every *.ubs in the directory; the intermediate
    // table is not one, but it is 80 MB nobody reads again.
    let _ = std::fs::remove_file(&table);
    std::fs::metadata(&store)
        .map(|m| m.len())
        .map_err(|e| format!("{}: {e}", store.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_vm_hwm_from_a_status_page() {
        let status =
            "Name:\turbane-serve\nVmPeak:\t  300000 kB\nVmHWM:\t  104840 kB\nVmRSS:\t 90000 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(104_840.0));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
    }
}
