//! Application models: the apps the paper measures (Table 1).
//!
//! The origin hostnames the apps resolve are the constants below; a
//! scenario serves each of them (`repro::scenario` builds the server farm).

pub mod browser;
pub mod facebook;
pub mod poster;
pub mod youtube;

pub use browser::{BrowserApp, BrowserConfig};
pub use facebook::{FacebookApp, FacebookConfig, FbVersion};
pub use poster::{FacebookPoster, PosterConfig};
pub use youtube::{VideoSpec, YouTubeApp, YouTubeConfig};

/// YouTube's video CDN.
pub const YOUTUBE_VIDEO_HOST: &str = "video.youtube.com";
/// YouTube's search API.
pub const YOUTUBE_API_HOST: &str = "api.youtube.com";
/// YouTube's ad CDN.
pub const YOUTUBE_AD_HOST: &str = "ads.youtube.com";
/// Facebook's API origin (feed reads).
pub const FACEBOOK_API_HOST: &str = "api.facebook.com";
/// Facebook's write origin (posts, the heavier write path).
pub const FACEBOOK_POST_HOST: &str = "graph.facebook.com";
/// Facebook's push channel, served by the write origin.
pub const FACEBOOK_PUSH_HOST: &str = "push.facebook.com";
