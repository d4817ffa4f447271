//! The attack scenario's flooder: a raw-frame client that pipelines
//! resource requests and answers every challenge with a nonce it has
//! checked to be wrong.

use aipow_pow::solver::{self, SolveError, SolverOptions};
use aipow_pow::{Challenge, NonceWidth};
use aipow_wire::{encode, read_message, Message, ReadMessageError, RejectCode};
use std::fmt;
use std::io::{self, BufReader, Write};
use std::net::{IpAddr, SocketAddr, TcpStream};
use std::time::Duration;

/// Request frames the flooder writes per `write` call.
pub const FRAMES_PER_WRITE: usize = 32;

/// Bound on waiting for the server; a wedged exchange fails the run.
const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// Width the flooder declares for its nonces.
pub const WIDTH: NonceWidth = NonceWidth::U64;

/// Returns the first nonce from `candidate` upward that does *not* solve
/// `challenge` for `client_ip`. Each candidate is checked with a
/// one-attempt solve, so the flooder pays one work-function evaluation
/// per garbage answer, whichever backend the challenge names.
///
/// # Errors
///
/// Returns the solver's error when the challenge names an unknown
/// backend.
pub fn garbage_nonce(
    challenge: &Challenge,
    client_ip: IpAddr,
    candidate: u64,
) -> Result<u64, SolveError> {
    // Half the nonce space keeps `nonce + 1` clear of the u64 ceiling.
    let mut nonce = candidate >> 1;
    loop {
        let options = SolverOptions {
            max_attempts: Some(1),
            start_nonce: nonce,
            ..SolverOptions::default()
        };
        match solver::solve(challenge, client_ip, &options) {
            Ok(_) => nonce += 1,
            Err(SolveError::BudgetExhausted { .. }) => return Ok(nonce),
            Err(e) => return Err(e),
        }
    }
}

/// Why a flood round failed.
#[derive(Debug)]
pub enum FloodError {
    /// Transport failure.
    Io(io::Error),
    /// A reply failed to decode or the server closed the connection.
    Read(ReadMessageError),
    /// A reply that does not fit the exchange.
    Unexpected(String),
    /// The solver could not evaluate a challenge.
    Solve(SolveError),
}

impl fmt::Display for FloodError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FloodError::Io(e) => write!(f, "flooder transport error: {e}"),
            FloodError::Read(e) => write!(f, "flooder read error: {e}"),
            FloodError::Unexpected(m) => write!(f, "flooder got unexpected reply: {m}"),
            FloodError::Solve(e) => write!(f, "flooder solver error: {e}"),
        }
    }
}

impl From<io::Error> for FloodError {
    fn from(e: io::Error) -> Self {
        FloodError::Io(e)
    }
}

impl From<ReadMessageError> for FloodError {
    fn from(e: ReadMessageError) -> Self {
        FloodError::Read(e)
    }
}

/// What one round of [`FRAMES_PER_WRITE`] requests and solutions cost
/// and got.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Round {
    /// Requests answered with a challenge whose garbage solution the
    /// server then rejected.
    pub rejected: u64,
    /// Garbage solutions the server granted (must stay zero).
    pub granted: u64,
    /// Sum of 2^bits over the challenges issued.
    pub work: f64,
}

/// One flooder connection.
pub struct Flooder {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    path: String,
    requests: Vec<u8>,
    /// Next garbage-nonce candidate; advanced per challenge.
    candidate: u64,
}

impl Flooder {
    /// Connects to `addr` and performs the protocol handshake. `seed`
    /// picks the garbage nonces.
    ///
    /// # Errors
    ///
    /// Propagates transport failures and a refused handshake.
    pub fn connect(addr: SocketAddr, path: &str, seed: u64) -> Result<Flooder, FloodError> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        writer.set_read_timeout(Some(READ_TIMEOUT))?;
        let mut flooder = Flooder {
            reader: BufReader::new(writer.try_clone()?),
            writer,
            path: path.to_string(),
            requests: (0..FRAMES_PER_WRITE)
                .flat_map(|_| encode(&Message::RequestResource { path: path.into() }))
                .collect(),
            candidate: seed,
        };
        flooder.writer.write_all(&encode(&Message::Hello {
            version: aipow_wire::PROTOCOL_VERSION,
        }))?;
        match read_message(&mut flooder.reader)? {
            Message::Hello { .. } => Ok(flooder),
            other => Err(FloodError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Writes [`FRAMES_PER_WRITE`] requests in one write, reads the
    /// challenges, then writes one garbage solution per challenge in one
    /// write and reads the verdicts.
    ///
    /// # Errors
    ///
    /// Any reply other than a challenge to a request, or a grant or an
    /// invalid-solution rejection to a solution, fails the round.
    pub fn round(&mut self) -> Result<Round, FloodError> {
        self.writer.write_all(&self.requests)?;
        let mut challenges = Vec::with_capacity(FRAMES_PER_WRITE);
        for _ in 0..FRAMES_PER_WRITE {
            match read_message(&mut self.reader)? {
                Message::ChallengeIssued { challenge, .. } => challenges.push(challenge),
                other => return Err(FloodError::Unexpected(format!("{other:?}"))),
            }
        }
        let mut round = Round::default();
        let mut solutions = Vec::new();
        for challenge in challenges {
            round.work += (challenge.difficulty().bits() as f64).exp2();
            let ip = challenge.client_ip();
            self.candidate = self
                .candidate
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(1);
            let nonce = garbage_nonce(&challenge, ip, self.candidate).map_err(FloodError::Solve)?;
            solutions.extend(encode(&Message::SubmitSolution {
                backend: challenge.backend(),
                challenge,
                nonce,
                width: WIDTH,
                path: self.path.clone(),
            }));
        }
        self.writer.write_all(&solutions)?;
        for _ in 0..FRAMES_PER_WRITE {
            match read_message(&mut self.reader)? {
                Message::Rejected {
                    code: RejectCode::InvalidSolution,
                    ..
                } => round.rejected += 1,
                Message::ResourceGranted { .. } => round.granted += 1,
                other => return Err(FloodError::Unexpected(format!("{other:?}"))),
            }
        }
        Ok(round)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aipow_pow::{BackendId, Difficulty, Issuer, Solution};
    use std::net::{Ipv4Addr, Ipv6Addr};

    /// At one or two bits about half or a quarter of all nonces are
    /// valid, so a generator that skipped the check would be caught
    /// within a few challenges.
    fn never_valid(backend: BackendId, challenges: u64) {
        let issuer = Issuer::new(&[9u8; 32]).with_backend_param(BackendId::MEMORY_HARD, 1);
        let ips = [
            IpAddr::V4(Ipv4Addr::LOCALHOST),
            IpAddr::V6(Ipv6Addr::LOCALHOST),
        ];
        let mut skipped = 0;
        for i in 0..challenges {
            let ip = ips[(i % 2) as usize];
            let bits = 1 + (i % 2) as u8;
            let challenge = issuer.issue_backend_at(
                ip,
                Difficulty::new(bits).expect("small difficulty"),
                backend,
                1_000,
            );
            let candidate = i.wrapping_mul(0x2545_F491_4F6C_DD1D);
            let nonce = garbage_nonce(&challenge, ip, candidate).expect("known backend");
            let solution = Solution::new(challenge, nonce, WIDTH);
            assert!(
                !solution.meets_difficulty(ip),
                "garbage nonce {nonce} solves a {bits}-bit {backend} challenge"
            );
            skipped += nonce - (candidate >> 1);
        }
        assert!(skipped > 0, "no candidate was ever a valid nonce");
    }

    #[test]
    fn garbage_nonce_never_solves_sha256() {
        never_valid(BackendId::SHA256, 2_000);
    }

    #[test]
    fn garbage_nonce_never_solves_memory_hard() {
        never_valid(BackendId::MEMORY_HARD, 500);
    }
}
